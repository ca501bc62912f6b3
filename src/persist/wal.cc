#include "persist/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace rar {

std::string WalSegmentName(uint64_t first_sequence) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020" PRIu64 ".log", first_sequence);
  return buf;
}

bool ParseWalSegmentName(const std::string& name, uint64_t* first_sequence) {
  if (name.size() < 9 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t seq = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *first_sequence = seq;
  return true;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    PersistEnv* env, const std::string& dir, uint64_t next_sequence,
    const std::string& segment_path, WalWriterOptions options) {
  std::unique_ptr<WalWriter> w(
      new WalWriter(env, dir, next_sequence, options));
  std::lock_guard<std::mutex> lock(w->mu_);
  if (segment_path.empty()) {
    RAR_RETURN_NOT_OK(w->OpenSegmentLocked(next_sequence));
  } else {
    RAR_ASSIGN_OR_RETURN(w->file_,
                         env->NewWritableFile(segment_path, /*append=*/true));
    w->segment_path_ = segment_path;
  }
  return w;
}

Status WalWriter::OpenSegmentLocked(uint64_t first_sequence) {
  segment_path_ = dir_ + "/" + WalSegmentName(first_sequence);
  RAR_ASSIGN_OR_RETURN(file_,
                       env_->NewWritableFile(segment_path_, /*append=*/true));
  // Make the segment's directory entry crash-durable before any record
  // claims durability inside it.
  RAR_RETURN_NOT_OK(env_->SyncDir(dir_));
  return Status::OK();
}

uint64_t WalWriter::Append(WalRecordType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t seq = next_sequence_++;
  size_t before = pending_.size();
  EncodeFrame(seq, type, payload, &pending_);
  counters_.records += 1;
  counters_.bytes += pending_.size() - before;
  return seq;
}

Status WalWriter::WaitDurable(uint64_t sequence) {
  ScopedTimer commit_timer(options_.commit_ns);
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.fsync_policy == FsyncPolicy::kAlways) {
    // Per-commit fsync: no leader batching. The mutex is held across the
    // write+fsync, so commits serialize and each one that is not already
    // durable pays its own fsync.
    if (!io_status_.ok()) return io_status_;
    if (durable_sequence_ >= sequence) return Status::OK();
    std::string batch = std::move(pending_);
    pending_.clear();
    const uint64_t batch_end = next_sequence_ - 1;
    counters_.commit_batches += 1;
    Status s;
    if (!batch.empty()) s = file_->Append(batch.data(), batch.size());
    if (s.ok()) {
      ScopedTimer fsync_timer(options_.fsync_ns);
      s = file_->Sync();
    }
    if (!s.ok()) {
      io_status_ = s;
      return s;
    }
    counters_.fsyncs += 1;
    durable_sequence_ = std::max(durable_sequence_, batch_end);
    return Status::OK();
  }
  bool led = false;
  while (true) {
    if (!io_status_.ok()) return io_status_;
    if (durable_sequence_ >= sequence) break;
    if (leader_active_) {
      // A leader is mid-fsync; its commit will cover us or we retry.
      counters_.commit_waiters += 1;
      cv_.wait(lock);
      continue;
    }
    // Become the commit leader: everything buffered so far rides along.
    leader_active_ = true;
    led = true;
    std::string batch = std::move(pending_);
    pending_.clear();
    uint64_t batch_end = next_sequence_ - 1;
    counters_.commit_batches += 1;
    lock.unlock();

    Status s;
    if (!batch.empty()) s = file_->Append(batch.data(), batch.size());
    if (s.ok() && options_.fsync_policy != FsyncPolicy::kNone) {
      ScopedTimer fsync_timer(options_.fsync_ns);
      s = file_->Sync();
    }

    lock.lock();
    leader_active_ = false;
    if (s.ok()) {
      if (options_.fsync_policy != FsyncPolicy::kNone) counters_.fsyncs += 1;
      durable_sequence_ = std::max(durable_sequence_, batch_end);
    } else {
      io_status_ = s;
    }
    cv_.notify_all();
  }
  (void)led;
  return Status::OK();
}

Status WalWriter::Flush() {
  uint64_t last;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last = next_sequence_ - 1;
  }
  return WaitDurable(last);
}

Status WalWriter::Rotate() {
  RAR_RETURN_NOT_OK(Flush());
  std::lock_guard<std::mutex> lock(mu_);
  if (!io_status_.ok()) return io_status_;
  RAR_RETURN_NOT_OK(file_->Sync());
  RAR_RETURN_NOT_OK(file_->Close());
  return OpenSegmentLocked(next_sequence_);
}

uint64_t WalWriter::last_sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_ - 1;
}

std::string WalWriter::current_segment_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_path_;
}

WalWriterCounters WalWriter::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

Result<WalReadResult> ReadWal(PersistEnv* env, const std::string& dir,
                              uint64_t after_sequence) {
  WalReadResult result;
  RAR_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t first;
    if (ParseWalSegmentName(name, &first)) segments.emplace_back(first, name);
  }
  std::sort(segments.begin(), segments.end());

  uint64_t expected = after_sequence + 1;
  bool stopped = false;
  for (const auto& [first, name] : segments) {
    const std::string path = dir + "/" + name;
    std::string data;
    RAR_RETURN_NOT_OK(ReadFileFully(env, path, &data));
    if (stopped) {
      // A crash tears only the *last* appended segment, so bytes in any
      // segment past a stop point mean the log is damaged mid-history.
      if (!data.empty() && !result.damaged) {
        result.damaged = true;
        result.damage = "bytes present in segment " + name +
                        " past a torn/corrupt tail";
      }
      continue;
    }
    size_t offset = 0;
    size_t record_start = 0;
    WalRecord rec;
    while (record_start = offset,
           DecodeFrame(data, &offset, &rec) == FrameResult::kRecord) {
      if (rec.sequence < expected) continue;  // covered by the snapshot
      if (rec.sequence != expected) {
        // Intact frames that skip sequences mean records are *missing*
        // (a snapshot that covered them is gone or unreadable, or
        // segments were deleted) — not a tail tear. Report it instead
        // of silently dropping everything from here on.
        result.damaged = true;
        result.damage = "sequence gap in segment " + name + ": expected " +
                        std::to_string(expected) + ", found " +
                        std::to_string(rec.sequence);
        offset = record_start;
        stopped = true;
        break;
      }
      result.records.push_back(std::move(rec));
      rec = WalRecord{};
      ++expected;
    }
    if (offset < data.size() && !result.damaged) {
      // Bytes remain past the last intact frame: a torn or corrupt tail.
      result.truncated_tails += 1;
      stopped = true;
    }
    result.last_segment_path = path;
    result.last_segment_valid_bytes = offset;
  }
  return result;
}

}  // namespace rar
