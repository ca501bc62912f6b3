// Counters and latency metrics for the RelevanceEngine runtime.
//
// The engine mutates a block of relaxed atomics on its hot paths (checks,
// cache probes, version advances) and materialises a plain `EngineStats`
// snapshot on demand. Relaxed ordering is deliberate: counters are
// monotone telemetry, not synchronisation, and a snapshot taken while
// workers run is allowed to be momentarily inconsistent between fields.
// Both structs are generated from the metric table (obs/metrics.h).
#ifndef RAR_ENGINE_STATS_H_
#define RAR_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

/// One EngineStats field per row.
#define RAR_METRIC_FIELD(member, name, kind, backing, help) \
  uint64_t member = 0;
/// The relaxed atomic behind a Live row.
#define RAR_METRIC_ATOMIC(member, name, kind, backing, help) \
  RAR_METRIC_IF_LIVE(backing, std::atomic<uint64_t> member{0};)
/// Adds a Live row's atomic into its EngineStats field.
#define RAR_METRIC_FOLD(member, name, kind, backing, help) \
  RAR_METRIC_IF_LIVE(backing,                              \
                     stats->member += member.load(std::memory_order_relaxed);)

/// Defines `Name`, the live counter block of one metric group: a relaxed
/// atomic per Live row of `LIST`, `Bump`, and `FoldInto`, which adds every
/// Live row into a snapshot (`+=`, so several owners of one group sum).
#define RAR_COUNTER_BLOCK(Name, LIST)                                  \
  struct Name {                                                        \
    LIST(RAR_METRIC_ATOMIC)                                            \
    void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {              \
      c.fetch_add(n, std::memory_order_relaxed);                       \
    }                                                                  \
    void FoldInto(EngineStats* stats) const { LIST(RAR_METRIC_FOLD) }  \
  }

namespace rar {

/// \brief A point-in-time snapshot of engine counters, plus the stream,
/// persistence and server counters attached listeners contribute (all
/// zero when none is attached).
struct EngineStats {
  RAR_ENGINE_METRICS(RAR_METRIC_FIELD)
  /// Stale-entry drops attributed to the footprint component that moved,
  /// indexed by RelationId; the extra trailing slot counts Adom-version
  /// mismatches (LTR entries invalidated by active-domain growth alone).
  std::vector<uint64_t> invalidations_by_relation;

  RAR_STREAM_METRICS(RAR_METRIC_FIELD)
  /// Stream rechecks attributed to the applied relation that triggered
  /// them, indexed by RelationId; the trailing slot counts rechecks
  /// triggered by registration / active-domain growth.
  std::vector<uint64_t> stream_rechecks_by_relation;

  RAR_PERSIST_METRICS(RAR_METRIC_FIELD)
  RAR_SERVER_METRICS(RAR_METRIC_FIELD)

  uint64_t checks() const { return ir_checks + ltr_checks; }
  double cache_hit_rate() const {
    uint64_t probes = cache_hits + cache_misses;
    return probes == 0 ? 0.0 : static_cast<double>(cache_hits) / probes;
  }
  /// Mean decider latency per *uncached* check of each kind; cached checks
  /// cost no decider time by construction.
  double mean_ir_decider_ns() const {
    return uncached_ir_checks == 0
               ? 0.0
               : static_cast<double>(ir_time_ns) / uncached_ir_checks;
  }
  double mean_ltr_decider_ns() const {
    return uncached_ltr_checks == 0
               ? 0.0
               : static_cast<double>(ltr_time_ns) / uncached_ltr_checks;
  }
};

/// \brief The engine's live counter block (relaxed atomics).
RAR_COUNTER_BLOCK(EngineCounters, RAR_ENGINE_METRICS);

}  // namespace rar

#endif  // RAR_ENGINE_STATS_H_
