// The engine's observability bundle: every latency/width histogram the
// hot paths feed, plus the structured trace ring. One instance lives
// inside each RelevanceEngine (`engine.obs()`); the stream registry, the
// worker pool and the mediator record into the same bundle, so one
// snapshot attributes the whole runtime — decider tails, apply
// end-to-end, wave fan-out, batch latency, queue wait and source
// round-trips — next to the flat EngineStats counters.
#ifndef RAR_OBS_OBS_H_
#define RAR_OBS_OBS_H_

#include <cstdint>

#include "obs/histogram.h"
#include "obs/trace.h"

namespace rar {

/// \brief Construction-time knobs for an engine's observability bundle.
struct ObsOptions {
  /// Trace ring capacity (events; rounded up to a power of two).
  size_t trace_capacity = 4096;
  /// Trace sampling: 0 = off (every site is one relaxed load), 1 = every
  /// event, N = every Nth sampled site.
  uint32_t trace_sample_period = 0;
};

/// \brief Point-in-time copy of every histogram in the bundle.
struct ObsSnapshot {
  HistogramSnapshot ir_decider_ns;   ///< uncached IR decider wall time
  HistogramSnapshot ltr_decider_ns;  ///< uncached LTR decider wall time
  HistogramSnapshot apply_ns;        ///< ApplyResponse end-to-end latency
  HistogramSnapshot batch_ns;        ///< CheckBatch batch latency
  HistogramSnapshot wave_ns;         ///< stream recheck-wave duration
  HistogramSnapshot wave_width;      ///< bindings re-evaluated per wave
  HistogramSnapshot queue_wait_ns;   ///< worker-pool task queue wait
  HistogramSnapshot source_ns;       ///< simulated source round-trip
  HistogramSnapshot wal_fsync_ns;    ///< each physical WAL fsync
  HistogramSnapshot wal_commit_ns;   ///< WaitDurable end-to-end (group commit)
  HistogramSnapshot server_request_ns;   ///< session-server dispatch, any type
  HistogramSnapshot server_apply_ns;     ///< kApply requests end-to-end
  HistogramSnapshot server_poll_ns;      ///< kPoll requests end-to-end
  HistogramSnapshot server_register_ns;  ///< kRegisterQuery/Stream requests

  void Merge(const ObsSnapshot& other) {
    ir_decider_ns.Merge(other.ir_decider_ns);
    ltr_decider_ns.Merge(other.ltr_decider_ns);
    apply_ns.Merge(other.apply_ns);
    batch_ns.Merge(other.batch_ns);
    wave_ns.Merge(other.wave_ns);
    wave_width.Merge(other.wave_width);
    queue_wait_ns.Merge(other.queue_wait_ns);
    source_ns.Merge(other.source_ns);
    wal_fsync_ns.Merge(other.wal_fsync_ns);
    wal_commit_ns.Merge(other.wal_commit_ns);
    server_request_ns.Merge(other.server_request_ns);
    server_apply_ns.Merge(other.server_apply_ns);
    server_poll_ns.Merge(other.server_poll_ns);
    server_register_ns.Merge(other.server_register_ns);
  }
};

/// \brief The live recording side (histograms + trace ring). Every member
/// is individually thread-safe; there is no bundle-wide lock to contend.
class EngineObservability {
 public:
  explicit EngineObservability(const ObsOptions& options = {})
      : trace_(options.trace_capacity, options.trace_sample_period) {}

  EngineObservability(const EngineObservability&) = delete;
  EngineObservability& operator=(const EngineObservability&) = delete;

  Histogram ir_decider_ns;
  Histogram ltr_decider_ns;
  Histogram apply_ns;
  Histogram batch_ns;
  Histogram wave_ns;
  Histogram wave_width;
  Histogram queue_wait_ns;
  Histogram source_ns;
  Histogram wal_fsync_ns;
  Histogram wal_commit_ns;
  Histogram server_request_ns;
  Histogram server_apply_ns;
  Histogram server_poll_ns;
  Histogram server_register_ns;

  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  ObsSnapshot Snapshot() const {
    ObsSnapshot s;
    s.ir_decider_ns = ir_decider_ns.Snapshot();
    s.ltr_decider_ns = ltr_decider_ns.Snapshot();
    s.apply_ns = apply_ns.Snapshot();
    s.batch_ns = batch_ns.Snapshot();
    s.wave_ns = wave_ns.Snapshot();
    s.wave_width = wave_width.Snapshot();
    s.queue_wait_ns = queue_wait_ns.Snapshot();
    s.source_ns = source_ns.Snapshot();
    s.wal_fsync_ns = wal_fsync_ns.Snapshot();
    s.wal_commit_ns = wal_commit_ns.Snapshot();
    s.server_request_ns = server_request_ns.Snapshot();
    s.server_apply_ns = server_apply_ns.Snapshot();
    s.server_poll_ns = server_poll_ns.Snapshot();
    s.server_register_ns = server_register_ns.Snapshot();
    return s;
  }

 private:
  TraceBuffer trace_;
};

}  // namespace rar

#endif  // RAR_OBS_OBS_H_
