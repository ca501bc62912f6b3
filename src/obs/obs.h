// The engine's observability bundle: every latency/width histogram the
// hot paths feed, plus the structured trace ring. One instance lives
// inside each RelevanceEngine (`engine.obs()`); the stream registry and
// the mediator record into the same bundle, so one snapshot attributes
// the whole runtime — decider tails, apply end-to-end, wave duration and
// width, and source round-trips — next to the flat EngineStats counters.
#ifndef RAR_OBS_OBS_H_
#define RAR_OBS_OBS_H_

#include <cstdint>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// Histogram fields and their snapshot, one per row of the metric table.
#define RAR_HISTOGRAM_FIELD(member, help) HistogramSnapshot member;
#define RAR_HISTOGRAM_LIVE(member, help) Histogram member;
#define RAR_HISTOGRAM_SNAPSHOT(member, help) s.member = member.Snapshot();

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
  RAR_HISTOGRAM_METRICS(RAR_HISTOGRAM_FIELD)
};

/// \brief The live recording side (histograms + trace ring). Every member
/// is individually thread-safe; there is no bundle-wide lock to contend.
class EngineObservability {
 public:
  explicit EngineObservability(const ObsOptions& options = {})
      : trace_(options.trace_capacity, options.trace_sample_period) {}

  EngineObservability(const EngineObservability&) = delete;
  EngineObservability& operator=(const EngineObservability&) = delete;

  RAR_HISTOGRAM_METRICS(RAR_HISTOGRAM_LIVE)

  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  ObsSnapshot Snapshot() const {
    ObsSnapshot s;
    RAR_HISTOGRAM_METRICS(RAR_HISTOGRAM_SNAPSHOT)
    return s;
  }

 private:
  TraceBuffer trace_;
};

}  // namespace rar

#endif  // RAR_OBS_OBS_H_
