// Probes the traced rounds attach around the library's public seams:
//
//  * BracketListener — an ApplyListener attached once before the stream
//    registry and once after it. On the applying thread, the first one
//    closes the "engine.apply" span (opened where the apply entered the
//    program) and opens "stream.wave"; the second closes the wave. The gap
//    between the two is the registry's recheck wave.
//  * TimedLoopback — a copy of the program's in-process channel (encode,
//    re-parse, HandleFrame, parse) with HandleFrame timed per message
//    type. Only traced rounds use it; untraced rounds call the program's
//    own LoopbackChannel.
//
// Probes find their thread's buffers through a thread-local slot index,
// so threads the benchmark does not own (a TCP loop) record nothing.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "server/server.h"
#include "server/transport.h"

namespace perfbench {

constexpr size_t kNoSlot = static_cast<size_t>(-1);

/// The calling thread's tracer slot (kNoSlot for threads not registered).
size_t& ThreadSlot();

/// \brief Per-slot timing state shared by the probes of one round.
class ApplyProbe {
 public:
  /// Sample arrays per slot: `applies_per_slot` for the apply-side
  /// timings, `polls_per_slot` for HandleFrame of polls.
  ApplyProbe(Tracer* tracer, size_t slots, size_t applies_per_slot,
             size_t polls_per_slot);

  struct Slot {
    uint64_t entry_ns = 0;     ///< apply entered the program
    uint64_t wave_start_ns = 0;
    uint64_t engine_span = 0;  ///< open "engine.apply" span
    uint64_t wave_span = 0;    ///< open "stream.wave" span
    Samples engine_apply;      ///< entry -> first listener
    Samples wave;              ///< first -> second listener
    Samples handle_apply;      ///< HandleFrame of kApply
    Samples handle_poll;       ///< HandleFrame of kPoll
    uint64_t last_handle_ns = 0;
  };

  /// Marks the start of an apply on the calling thread's slot and opens
  /// its "engine.apply" span.
  void EnterApply(uint64_t request_id);
  /// Closes a still-open "engine.apply" span (apply failed before any
  /// listener ran).
  void LeaveApply();

  void FirstListener();
  void SecondListener();

  Tracer* tracer() { return tracer_; }
  Slot& slot(size_t i) { return slots_[i]; }
  size_t size() const { return slots_.size(); }

 private:
  Tracer* tracer_;
  std::vector<Slot> slots_;
};

class BracketListener : public rar::ApplyListener {
 public:
  BracketListener(ApplyProbe* probe, bool first)
      : probe_(probe), first_(first) {}
  void OnApply(const rar::ApplyEvent& event) override {
    (void)event;
    if (first_) {
      probe_->FirstListener();
    } else {
      probe_->SecondListener();
    }
  }

 private:
  ApplyProbe* probe_;
  bool first_;
};

/// \brief LoopbackChannel's round trip with HandleFrame timed, spanned
/// and sampled on the caller's slot.
class TimedLoopback : public rar::ClientChannel {
 public:
  TimedLoopback(rar::SessionServer* server, ApplyProbe* probe)
      : server_(server), probe_(probe) {}

  rar::Result<rar::WireFrame> Call(rar::MessageType type,
                                   std::string_view payload,
                                   const rar::CallContext& ctx) override;

 private:
  rar::SessionServer* server_;
  ApplyProbe* probe_;
  uint64_t next_request_id_ = 1;
};

/// `after` minus `before`, bucket by bucket (a histogram over the
/// measured phase only; `max` is the cumulative one).
rar::HistogramSnapshot HistogramDelta(const rar::HistogramSnapshot& before,
                                      const rar::HistogramSnapshot& after);

/// Per-layer metrics from the program's own counters and histograms,
/// taken over the measured phase (engine, stream, relevance, persist,
/// server counters). Ratios come with their base count.
void AddCounterMetrics(const rar::EngineStats& before,
                       const rar::EngineStats& after,
                       const rar::ObsSnapshot& obs_before,
                       const rar::ObsSnapshot& obs_after, RoundResult* out);

/// Per-layer self time from the round's spans, in microseconds per traced
/// op (root span), plus the span counts.
void AddSpanMetrics(const Tracer& tracer, RoundResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
