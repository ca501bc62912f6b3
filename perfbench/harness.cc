#include "harness.h"

#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

double CpuProbeMs() {
  const uint64_t t0 = NowNs();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

uint64_t NearestRank(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Quantiles Summarize(const std::vector<const Samples*>& parts) {
  std::vector<uint64_t> all;
  size_t total = 0;
  for (const Samples* s : parts) total += s->values().size();
  all.reserve(total);
  for (const Samples* s : parts) {
    all.insert(all.end(), s->values().begin(), s->values().end());
  }
  std::sort(all.begin(), all.end());
  Quantiles q;
  q.count = all.size();
  q.p50_us = static_cast<double>(NearestRank(all, 50)) / 1e3;
  q.p90_us = static_cast<double>(NearestRank(all, 90)) / 1e3;
  return q;
}

double FailRatio(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

void Pacer::Lead() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

void Pacer::Follow(size_t j) {
  const size_t needed = j / ratio_ + 1;
  if (started() >= needed) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return started() >= needed; });
}

Tracer::Tracer(bool enabled, size_t slots, size_t spans_per_slot)
    : enabled_(enabled), slots_(enabled ? slots : 0) {
  for (Slot& s : slots_) {
    s.spans.reserve(spans_per_slot);
    s.open.reserve(16);
  }
}

uint64_t Tracer::Begin(size_t slot, const char* name, uint64_t request_id) {
  if (!enabled_ || slot >= slots_.size()) return 0;
  Slot& s = slots_[slot];
  if (s.spans.size() == s.spans.capacity() ||
      s.open.size() == s.open.capacity()) {
    ++s.dropped;
    return 0;
  }
  Span span;
  span.name = name;
  span.thread = static_cast<uint32_t>(slot);
  // Slot in the high bits, 1-based index below: unique and never 0.
  span.id = (static_cast<uint64_t>(slot) << 40) | (s.spans.size() + 1);
  span.parent = s.open.empty() ? 0 : s.open.back();
  span.request_id = request_id;
  span.start_ns = NowNs();
  s.spans.push_back(span);
  s.open.push_back(span.id);
  return span.id;
}

void Tracer::End(size_t slot, uint64_t id) {
  if (!enabled_ || id == 0 || slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  const size_t index = static_cast<size_t>(id & ((1ull << 40) - 1)) - 1;
  s.spans[index].end_ns = NowNs();
  if (!s.open.empty() && s.open.back() == id) s.open.pop_back();
}

uint64_t Tracer::Current(size_t slot) const {
  if (!enabled_ || slot >= slots_.size() || slots_[slot].open.empty()) {
    return 0;
  }
  return slots_[slot].open.back();
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> out;
  for (const Slot& s : slots_) {
    out.insert(out.end(), s.spans.begin(), s.spans.end());
  }
  return out;
}

uint64_t Tracer::dropped() const {
  uint64_t n = 0;
  for (const Slot& s : slots_) n += s.dropped;
  return n;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tthread\tid\tparent\trequest_id\tstart_ns\tend_ns\n");
  for (const Slot& s : slots_) {
    for (const Span& span : s.spans) {
      std::fprintf(f, "%s\t%u\t%llu\t%llu\t%llu\t%llu\t%llu\n", span.name,
                   span.thread, static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request_id),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& c : spans) {
    auto it = index.find(c.parent);
    if (c.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    // Only the part of the child inside its parent's interval counts.
    const uint64_t lo = std::max(c.start_ns, p.start_ns);
    const uint64_t hi = std::min(c.end_ns, p.end_ns);
    if (lo < hi) children[it->second].push_back({lo, hi});
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t dur = spans[i].end_ns > spans[i].start_ns
                             ? spans[i].end_ns - spans[i].start_ns
                             : 0;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t run_lo = 0;
    uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = dur > covered ? dur - covered : 0;
  }
  return self;
}

std::map<std::string, uint64_t> LayerSelfNs(const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string name = spans[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

long RoundInputs::Param(const std::string& name) const {
  auto it = params.find(name);
  return it == params.end() ? 0 : it->second;
}

}  // namespace perfbench
