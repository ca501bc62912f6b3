// DedupWindow: a bounded per-session cache of completed request outcomes,
// the server half of the "at-least-once delivery, exactly-once effect"
// contract.
//
// A client that never saw a response cannot know whether its mutation
// landed, so it retries the *same* request id. The window answers the
// retry from the cached response without touching the engine — the
// mutation's effect happens exactly once even though the request arrived
// twice. Eviction is FIFO by completion order; `completed_through()`
// tracks the highest id ever evicted, so a duplicate that is both missing
// from the window *and* at-or-below the watermark is provably a stale
// replay (its original completed long ago) and must be rejected rather
// than re-applied.
//
// Soundness of the bound: channels are single-in-flight per session, so a
// live retry always targets the most recently completed (or never
// completed) id — a window of one entry already covers it. A larger
// window additionally absorbs reordered duplicates a lossy transport
// replays from further back. The unsound alternative — treating an
// evicted id as fresh — would double-apply; kStale exists so that path is
// closed.
//
// Entries store the encoded response payload plus its message type, so
// the hit path can also verify the duplicate asks for the same operation.
#ifndef RAR_PERSIST_DEDUP_H_
#define RAR_PERSIST_DEDUP_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

namespace rar {

class DedupWindow {
 public:
  /// \brief One cached outcome.
  struct Entry {
    uint8_t type = 0;  ///< wire MessageType byte of the original request
    std::string response_payload;
  };

  enum class Verdict {
    kFresh,  ///< never seen: execute, then Record
    kHit,    ///< cached: answer from *entry, do not execute
    kStale,  ///< evicted long ago: reject, never re-execute
  };

  explicit DedupWindow(size_t capacity = 256) : capacity_(capacity) {}

  /// Classifies `request_id`; on kHit `*entry` points at the cached
  /// outcome (valid until the next Record).
  Verdict Probe(uint64_t request_id, const Entry** entry) const {
    auto it = entries_.find(request_id);
    if (it != entries_.end()) {
      if (entry != nullptr) *entry = &it->second;
      return Verdict::kHit;
    }
    if (request_id <= evicted_watermark_ && evicted_watermark_ != 0) {
      return Verdict::kStale;
    }
    return Verdict::kFresh;
  }

  /// Records a completed request's outcome (call only after kFresh).
  void Record(uint64_t request_id, uint8_t type, std::string response) {
    if (capacity_ == 0) return;
    auto [it, inserted] =
        entries_.emplace(request_id, Entry{type, std::move(response)});
    if (!inserted) return;
    if (request_id > highest_recorded_) highest_recorded_ = request_id;
    order_.push_back(request_id);
    EvictPastCapacity();
  }

  /// Changes the capacity; shrinking evicts the oldest entries into the
  /// stale watermark, exactly as if they had aged out.
  void Resize(size_t capacity) {
    capacity_ = capacity;
    EvictPastCapacity();
  }

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }
  /// Highest request id ever evicted (0 = nothing evicted yet).
  uint64_t evicted_watermark() const { return evicted_watermark_; }

  /// The first request id this window has neither recorded nor evicted
  /// past: where a client resuming the session must continue numbering,
  /// or its first mutations would be answered from cache or rejected as
  /// stale without running.
  uint64_t next_free_id() const {
    return std::max(highest_recorded_, evicted_watermark_) + 1;
  }

  /// Entries oldest-first, for snapshot serialization.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t id : order_) {
      auto it = entries_.find(id);
      fn(id, it->second);
    }
  }

  /// Snapshot restore: re-seeds the watermark before entries re-Record.
  void RestoreWatermark(uint64_t watermark) { evicted_watermark_ = watermark; }

 private:
  void EvictPastCapacity() {
    while (order_.size() > capacity_) {
      const uint64_t evicted = order_.front();
      order_.pop_front();
      entries_.erase(evicted);
      if (evicted > evicted_watermark_) evicted_watermark_ = evicted;
    }
  }

  size_t capacity_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::deque<uint64_t> order_;  ///< completion order, for FIFO eviction
  uint64_t evicted_watermark_ = 0;
  uint64_t highest_recorded_ = 0;
};

}  // namespace rar

#endif  // RAR_PERSIST_DEDUP_H_
