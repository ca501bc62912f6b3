// Structured trace events over a fixed-capacity lock-free MPSC ring.
//
// The runtime's counters say *how much* happened; the trace says *what*,
// in order, for the last N events: which apply landed which facts at
// which version bracket, what each recheck wave touched versus skipped
// and why it fell back, what each check decided and whether the cache
// served it. Events are recorded from hot paths under sampling — with
// the sample period 0 (the default) every instrumentation site reduces
// to one relaxed atomic load, so tracing costs nothing until turned on.
//
// Concurrency: writers claim a slot with one fetch_add and publish it
// seqlock-style (odd sequence while writing, even when committed); every
// slot word is an atomic, so concurrent writers that lap each other and
// the postmortem reader are race-free by construction — a reader that
// observes a torn slot (sequence moved mid-read) drops it instead of
// reporting garbage. `DumpJson` renders the last N committed events for
// postmortem inspection; it is the single-consumer side (concurrent
// dumps are safe but may each drop in-flight slots).
#ifndef RAR_OBS_TRACE_H_
#define RAR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace rar {

/// \brief What a trace event describes.
enum class TraceEventKind : uint8_t {
  kNone = 0,
  kApply,  ///< one absorbed ApplyResponse
  kWave,   ///< one stream recheck wave
  kCheck,  ///< one engine relevance check
};

/// \brief Why a recheck wave re-evaluated instead of value-gating
/// (mirrors the stream_value_gate_fallback_* counters).
enum class WaveFallbackReason : uint8_t {
  kNone = 0,        ///< value-gated (or nothing was stale)
  kAdomGrowth,      ///< the apply grew the active domain: full recheck
  kDependentLtr,    ///< dependent-method LTR stream: gate unsupported
  kForcedFull,      ///< force_full_recheck / registration
  kAdomDelta,       ///< Adom growth gated to {touched, newborn, residual}
};

const char* ToString(TraceEventKind kind);
const char* ToString(WaveFallbackReason reason);

/// \brief One structured event. Field meaning by kind:
///
///  kApply: id = relation, id2 = facts_added, a = relation version after
///          the apply, b = version before (a - facts_added: the bracket),
///          flag_a = adom_grew, ns = end-to-end ApplyResponse latency.
///  kWave:  id = attributed relation (num_relations for registration /
///          Adom waves), id2 = stream id, a = bindings re-evaluated,
///          b = bindings skipped (stamp-valid + value-gated + settled),
///          detail = WaveFallbackReason, ns = wave duration.
///  kCheck: id = query id, detail = CheckKind (0 = IR, 1 = LTR),
///          flag_a = relevant, flag_b = served from cache, ns = check
///          latency.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kNone;
  uint8_t detail = 0;
  bool flag_a = false;
  bool flag_b = false;
  uint32_t id = 0;
  uint32_t id2 = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t ns = 0;
  uint64_t timestamp_ns = 0;  ///< MonotonicNs at record time
  uint64_t seq = 0;           ///< global record order (assigned by buffer)
};

/// \brief Fixed-capacity multi-producer ring of TraceEvents.
class TraceBuffer {
 public:
  /// `capacity` is rounded up to a power of two (min 64);
  /// `sample_period` of 0 disables recording, 1 records everything, N
  /// records every Nth sampled site.
  explicit TraceBuffer(size_t capacity, uint32_t sample_period = 0);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// The recording gate every instrumentation site calls first. One
  /// relaxed load when sampling is off; one extra fetch_add when on.
  bool ShouldSample() {
    const uint32_t period = sample_period_.load(std::memory_order_relaxed);
    if (period == 0) return false;
    if (period == 1) return true;
    return sample_ticket_.fetch_add(1, std::memory_order_relaxed) % period ==
           0;
  }

  bool enabled() const {
    return sample_period_.load(std::memory_order_relaxed) != 0;
  }

  /// Changes the sampling period at runtime (0 stops recording).
  void SetSamplePeriod(uint32_t period) {
    sample_period_.store(period, std::memory_order_relaxed);
  }

  /// Publishes one event (timestamp and seq are assigned here).
  void Record(TraceEvent event);

  /// Events recorded so far (including ones the ring already overwrote).
  uint64_t total_recorded() const {
    return head_.load(std::memory_order_acquire);
  }

  size_t capacity() const { return capacity_; }

  /// The last (up to) `n` committed events, oldest first. Slots being
  /// overwritten mid-read are dropped, never misreported.
  std::vector<TraceEvent> LastEvents(size_t n) const;

  /// JSON array of the last `n` events (schema documented in DESIGN.md,
  /// "Observability").
  std::string DumpJson(size_t n) const;

 private:
  /// Seqlock-published slot: `seq` is 2*ticket+1 while the owning writer
  /// fills the words, 2*ticket+2 once committed.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[6];
  };

  static void Encode(const TraceEvent& e, Slot* slot);
  /// False when the slot was torn (sequence moved during the read).
  static bool Decode(const Slot& slot, uint64_t expect_seq, TraceEvent* out);

  std::atomic<uint32_t> sample_period_;
  std::atomic<uint64_t> sample_ticket_{0};
  std::atomic<uint64_t> head_{0};
  size_t capacity_;
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
};

/// \brief RAII span: captures the start time only when the buffer samples
/// this event, fills in the duration and records on destruction. Sampling
/// off: construction is the single relaxed load of ShouldSample.
class TraceSpan {
 public:
  TraceSpan(TraceBuffer* buffer, TraceEventKind kind) {
    if (buffer != nullptr && buffer->ShouldSample()) {
      buffer_ = buffer;
      start_ns_ = MonotonicNs();
      event_.kind = kind;
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (buffer_ != nullptr) {
      event_.ns = MonotonicNs() - start_ns_;
      buffer_->Record(event_);
    }
  }

  /// True when this span was sampled — guard for filling event fields.
  bool active() const { return buffer_ != nullptr; }
  TraceEvent& event() { return event_; }

 private:
  TraceBuffer* buffer_ = nullptr;
  uint64_t start_ns_ = 0;
  TraceEvent event_;
};

}  // namespace rar

#endif  // RAR_OBS_TRACE_H_
