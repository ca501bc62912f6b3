// Live counters of the stream registry (relaxed atomics, mirroring
// engine/stats.h): how many bindings each apply actually recharged versus
// skipped, and where the recheck pressure comes from. The registry
// contributes these into EngineStats snapshots via the ApplyListener
// ContributeStats hook, so `engine.stats()` shows k-ary work alongside the
// Boolean check counters.
#ifndef RAR_STREAM_STREAM_STATS_H_
#define RAR_STREAM_STREAM_STATS_H_

#include <atomic>
#include <cstdint>

#include "engine/stats.h"

namespace rar {

/// \brief The registry's counter block (relaxed atomics; see
/// EngineCounters for the ordering rationale).
struct StreamCounters {
  std::atomic<uint64_t> streams_registered{0};
  std::atomic<uint64_t> subscriptions{0};
  std::atomic<uint64_t> bindings_tracked{0};
  std::atomic<uint64_t> new_bindings{0};
  std::atomic<uint64_t> rechecks{0};
  std::atomic<uint64_t> skips{0};
  std::atomic<uint64_t> sticky_skips{0};
  std::atomic<uint64_t> events{0};
  /// Bindings restamped without evaluation by the value gate, and the
  /// bindings that escaped it, attributed by reason (see EngineStats).
  std::atomic<uint64_t> value_gate_skips{0};
  std::atomic<uint64_t> value_gate_fallback_adom{0};
  std::atomic<uint64_t> value_gate_fallback_dependent_ltr{0};
  std::atomic<uint64_t> value_gate_fallback_unconstrained{0};
  /// Gated rechecks the narrowing machinery *selected* (not fallbacks):
  /// bindings a landed fact reached through the secondary non-head-value
  /// semijoin chase, and newborn bindings minted by a delta-gated Adom
  /// growth wave.
  std::atomic<uint64_t> value_gate_semijoin_rechecks{0};
  std::atomic<uint64_t> value_gate_newborn_rechecks{0};
  /// Retained events evicted by StreamOptions::retain_cap (lagging or
  /// dead subscribers) and streams degraded to conservative full-recheck
  /// mode (Degrade — the serving layer's load-shedding hook).
  std::atomic<uint64_t> retained_evicted{0};
  std::atomic<uint64_t> streams_degraded{0};

  void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
    c.fetch_add(n, std::memory_order_relaxed);
  }

  void ContributeTo(EngineStats* stats) const {
    auto ld = [](const std::atomic<uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    stats->streams_registered += ld(streams_registered);
    stats->stream_subscriptions += ld(subscriptions);
    stats->stream_bindings += ld(bindings_tracked);
    stats->stream_new_bindings += ld(new_bindings);
    stats->stream_rechecks += ld(rechecks);
    stats->stream_skips += ld(skips);
    stats->stream_sticky_skips += ld(sticky_skips);
    stats->stream_events += ld(events);
    stats->stream_value_gate_skips += ld(value_gate_skips);
    stats->stream_value_gate_fallback_adom += ld(value_gate_fallback_adom);
    stats->stream_value_gate_fallback_dependent_ltr +=
        ld(value_gate_fallback_dependent_ltr);
    stats->stream_value_gate_fallback_unconstrained +=
        ld(value_gate_fallback_unconstrained);
    stats->stream_value_gate_semijoin += ld(value_gate_semijoin_rechecks);
    stats->stream_value_gate_newborn += ld(value_gate_newborn_rechecks);
    stats->stream_retained_evicted += ld(retained_evicted);
    stats->stream_degraded += ld(streams_degraded);
  }
};

}  // namespace rar

#endif  // RAR_STREAM_STREAM_STATS_H_
