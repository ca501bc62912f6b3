// The benchmark's own measurement kit: exact latency samples, nearest-
// rank percentiles, spans with self-time attribution, process CPU time,
// a host-speed probe, and the per-round record every workload fills.
//
// Everything on a measured path is allocation-free: sample arrays and
// span buffers are sized up front from the fixed op counts, and an
// overflow is counted instead of growing the buffer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

/// CPU time of the whole process (all threads), in nanoseconds.
uint64_t ProcessCpuNs();

/// Name of the filesystem holding `path` (e.g. "ext4", "tmpfs").
std::string FilesystemName(const std::string& path);

/// Times a fixed integer loop (a host-speed diagnostic); milliseconds.
double CpuProbeMs();

/// \brief Latency samples of one op class, filled by one thread. The
/// capacity is fixed at construction; samples past it are counted in
/// `dropped()` instead of reallocating.
class Samples {
 public:
  explicit Samples(size_t capacity = 0) { values_.reserve(capacity); }

  void Add(uint64_t ns) {
    if (values_.size() < values_.capacity()) {
      values_.push_back(ns);
    } else {
      ++dropped_;
    }
  }
  const std::vector<uint64_t>& values() const { return values_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<uint64_t> values_;
  uint64_t dropped_ = 0;
};

/// Nearest-rank percentile of an ascending array: the value at rank
/// ceil(p/100 * n), ranks counted from 1 (p in (0, 100]). 0 when empty.
uint64_t NearestRank(const std::vector<uint64_t>& sorted, double p);

/// \brief Exact percentiles of one op class, with their sample count.
struct Quantiles {
  size_t count = 0;
  double p50_us = 0;
  double p90_us = 0;
};

/// Merges per-thread sample arrays and reads p50/p90 by nearest rank.
Quantiles Summarize(const std::vector<const Samples*>& parts);

/// Failed, refused or retried-out ops as a share of attempted ops.
double FailRatio(uint64_t attempted, uint64_t failed);

/// \brief Paces follower threads by a leader's progress, without
/// busy-waiting: a follower's op j (from 0) may start once the leaders
/// have started op j / ratio + 1. Every leader op then overlaps about the
/// same number of follower ops whatever the host's speed, and no follower
/// finishes far ahead of the leaders and leaves their tail uncontended.
class Pacer {
 public:
  explicit Pacer(size_t ratio) : ratio_(ratio == 0 ? 1 : ratio) {}

  /// A leader is about to start an op.
  void Lead();
  /// Blocks until the follower's op `j` may start.
  void Follow(size_t j);
  /// Leader ops started so far.
  size_t started() const { return started_.load(std::memory_order_acquire); }

 private:
  const size_t ratio_;
  std::atomic<size_t> started_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// \brief One recorded span. Ids are unique per Tracer and never 0; a
/// parent of 0 marks a root.
struct Span {
  const char* name = nullptr;  ///< "<layer>.<what>", a string literal
  uint32_t thread = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// \brief Span recorder with one preallocated buffer per thread slot.
/// A disabled tracer records nothing and every call is a branch. Each
/// slot is written by one thread only; read the spans after the threads
/// joined.
class Tracer {
 public:
  Tracer(bool enabled, size_t slots, size_t spans_per_slot);

  /// Opens a span on `slot` as a child of the slot's innermost open span.
  /// Returns its id (0 when disabled or the slot's buffer is full).
  uint64_t Begin(size_t slot, const char* name, uint64_t request_id = 0);
  /// Closes span `id` (must be the slot's innermost open span).
  void End(size_t slot, uint64_t id);
  /// The slot's innermost open span (0 = none).
  uint64_t Current(size_t slot) const;

  /// Every recorded span, slot by slot.
  std::vector<Span> Collect() const;
  uint64_t dropped() const;

  /// Writes the spans as tab-separated lines, once, at the end of a run.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Slot {
    std::vector<Span> spans;
    std::vector<uint64_t> open;  ///< ids of open spans, innermost last
    uint64_t dropped = 0;
  };
  bool enabled_;
  std::vector<Slot> slots_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children may run
/// in parallel on other threads and overlap each other). Aligned with
/// `spans` by index.
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sums self time per layer, the span-name prefix before the first '.'.
std::map<std::string, uint64_t> LayerSelfNs(const std::vector<Span>& spans);

/// \brief What one round of a workload produced. `metrics` holds the
/// end-to-end metrics, the report-only extras and (in traced rounds) the
/// per-layer metrics, all by name; units live in the metric catalogue.
struct RoundResult {
  bool correct = true;
  std::string error;  ///< first failed check (empty when correct)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// \brief Inputs every workload round receives.
struct RoundInputs {
  uint64_t seed = 1;
  bool traced = false;
  std::string scratch_dir;  ///< per-run directory for files (WAL)
  std::string trace_file;   ///< where a traced round writes its spans
  /// Fixed-size knobs; the workload reads the ones it defines and the
  /// round's output records all of them.
  std::map<std::string, long> params;
  long Param(const std::string& name) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
