// Counters and latency metrics for the RelevanceEngine runtime.
//
// The engine mutates a block of relaxed atomics on its hot paths (checks,
// cache probes, version advances) and materialises a plain `EngineStats`
// snapshot on demand. Relaxed ordering is deliberate: counters are
// monotone telemetry, not synchronisation, and a snapshot taken while
// workers run is allowed to be momentarily inconsistent between fields.
#ifndef RAR_ENGINE_STATS_H_
#define RAR_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace rar {

/// \brief A point-in-time snapshot of engine counters.
struct EngineStats {
  uint64_t ir_checks = 0;        ///< immediate-relevance decisions requested
  uint64_t ltr_checks = 0;       ///< long-term-relevance decisions requested
  uint64_t cache_hits = 0;       ///< verdicts served from the decision cache
  uint64_t cache_misses = 0;     ///< verdicts that ran a decider
  uint64_t sticky_hits = 0;      ///< hits on growth-stable entries / certainty
  uint64_t cross_epoch_hits = 0; ///< hits that survived non-footprint growth
                                 ///< (invalidations the global-epoch scheme
                                 ///< would have inflicted)
  uint64_t stale_invalidations = 0;  ///< entries dropped on stamp mismatch
  uint64_t wf_rejections = 0;    ///< checks refused: access not well-formed
  uint64_t certainty_reuse = 0;  ///< certainty fixpoint reused (same stamp)
  uint64_t producible_reuse = 0; ///< ProducibleDomains fixpoint reused
  uint64_t producible_recomputes = 0;  ///< ProducibleDomains recomputed
  uint64_t epoch_advances = 0;   ///< configuration-growing responses
  uint64_t adom_advances = 0;    ///< responses that grew the active domain
  uint64_t facts_applied = 0;    ///< new facts absorbed via ApplyResponse
  uint64_t responses_applied = 0;///< ApplyResponse calls (incl. empty)
  uint64_t overlapped_applies = 0;  ///< applies that ran with checks in flight
  uint64_t overlapped_checks = 0;   ///< checks that ran with applies in flight
  uint64_t batch_calls = 0;      ///< CheckBatch invocations
  uint64_t batch_items = 0;      ///< accesses checked through CheckBatch
  uint64_t uncached_ir_checks = 0;   ///< IR checks that ran the decider
  uint64_t uncached_ltr_checks = 0;  ///< LTR checks that ran the decider
  uint64_t ir_time_ns = 0;       ///< wall time inside uncached IR deciders
  uint64_t ltr_time_ns = 0;      ///< wall time inside uncached LTR deciders
  uint64_t cache_entries = 0;    ///< live decision-cache entries
  uint64_t cache_evictions = 0;  ///< entries evicted by the LRU size cap
  uint64_t frontier_pending = 0; ///< candidate accesses not yet performed
  uint64_t frontier_performed = 0;  ///< accesses marked performed
  /// Stale-entry drops attributed to the footprint component that moved,
  /// indexed by RelationId; the extra trailing slot counts Adom-version
  /// mismatches (LTR entries invalidated by active-domain growth alone).
  std::vector<uint64_t> invalidations_by_relation;

  // Stream-registry counters (src/stream/), contributed by an attached
  // RelevanceStreamRegistry; all zero when none is attached.
  uint64_t streams_registered = 0;  ///< standing k-ary/Boolean streams
  /// Registrations (StreamIds): each one a cursor on one of the streams —
  /// registrations with equal (query, options) share a stream.
  uint64_t stream_subscriptions = 0;
  uint64_t stream_bindings = 0;     ///< head bindings tracked (incl. fresh)
  uint64_t stream_new_bindings = 0; ///< bindings born from Adom growth
  uint64_t stream_rechecks = 0;     ///< per-binding re-evaluations run
  uint64_t stream_skips = 0;        ///< bindings skipped (stamp still valid)
  uint64_t stream_sticky_skips = 0; ///< bindings skipped as settled (certain
                                    ///< or unsatisfiable — monotone-final)
  uint64_t stream_events = 0;       ///< delta notifications emitted
  /// Bindings a value-gated hit wave restamped without re-evaluation: the
  /// landed facts could not unify with any substituted atom of their Q_b,
  /// so the verdicts were provably unchanged (see stream/registry.h).
  uint64_t stream_value_gate_skips = 0;
  /// Bindings rechecked on an Adom-growing apply beyond what the delta
  /// gate selected: the residual irrelevant-uncertain bindings (a freshly
  /// minted access may become relevant to them through hypothetical
  /// response facts, which no current-config index bounds), plus every
  /// stale binding of streams whose Adom waves are not delta-gated (LTR
  /// streams, >= 64 disjuncts, force_full_recheck).
  uint64_t stream_value_gate_fallback_adom = 0;
  /// Bindings rechecked because the stream tracks LTR under dependent
  /// methods (an access over any method relation can matter through a
  /// production chain — unification against query atoms does not bound
  /// that, so the gate is disabled for such streams).
  uint64_t stream_value_gate_fallback_dependent_ltr = 0;
  /// Bindings rechecked in a gated wave because a landed fact matched an
  /// atom with no binding-derived constraint and the semijoin narrowing
  /// could not bound its reach: no slot-anchored atom is join-connected to
  /// the hit atom (Boolean disjuncts, disconnected components), the chase
  /// overflowed its caps, or the binding is irrelevant-uncertain (a free
  /// hit can flip its IR verdict through hypothetical response facts).
  uint64_t stream_value_gate_fallback_unconstrained = 0;
  /// Gated rechecks the narrowing *selected* rather than fell back to:
  /// bindings a landed fact reached through the secondary non-head value
  /// index (semijoin chase over join variables to slot-anchored atoms),
  /// and newborn bindings minted by a delta-gated Adom growth wave.
  uint64_t stream_value_gate_semijoin = 0;
  uint64_t stream_value_gate_newborn = 0;
  /// Retained events evicted by StreamOptions::retain_cap — each one is a
  /// gap some lagging subscriber will have to re-snapshot across.
  uint64_t stream_retained_evicted = 0;
  /// Stream rechecks attributed to the applied relation that triggered
  /// them, indexed by RelationId; the trailing slot counts rechecks
  /// triggered by registration / active-domain growth.
  std::vector<uint64_t> stream_rechecks_by_relation;

  // Persistence counters (src/persist/), contributed by an attached
  // DurableSession; all zero when the engine runs in-memory only.
  uint64_t wal_records = 0;        ///< records appended to the WAL
  uint64_t wal_bytes = 0;          ///< framed bytes appended
  uint64_t wal_fsyncs = 0;         ///< physical fsyncs issued
  uint64_t wal_commit_batches = 0; ///< group-commit leader rounds
  uint64_t wal_commit_waiters = 0; ///< commits absorbed into another's fsync
  uint64_t snapshots_written = 0;  ///< snapshot files sealed
  uint64_t snapshot_bytes = 0;     ///< bytes in the last sealed snapshot
  uint64_t replay_records = 0;     ///< WAL records replayed at recovery
  uint64_t replay_facts = 0;       ///< facts re-absorbed from replay
  uint64_t wal_truncated_tails = 0;  ///< torn/corrupt tails truncated

  /// ApplyResponse calls rejected at admission because
  /// EngineOptions::max_inflight_applies outstanding applies were already
  /// in flight (the caller should back off and retry).
  uint64_t apply_admission_rejections = 0;

  // Session-server counters (src/server/), contributed by an attached
  // SessionServer; all zero when the engine is driven in-process.
  uint64_t server_sessions_opened = 0;   ///< fresh sessions admitted
  uint64_t server_sessions_resumed = 0;  ///< Hello calls that resumed a token
  uint64_t server_sessions_retired = 0;  ///< sessions closed by Goodbye
  uint64_t server_sessions_reaped = 0;   ///< idle sessions reaped
  uint64_t server_sessions_shed = 0;     ///< Hellos rejected (admission cap)
  uint64_t server_sessions_active = 0;   ///< live sessions (gauge)
  uint64_t server_requests = 0;          ///< frames dispatched (all types)
  uint64_t server_requests_hello = 0;
  uint64_t server_requests_register_query = 0;
  uint64_t server_requests_register_stream = 0;
  uint64_t server_requests_apply = 0;
  uint64_t server_requests_poll = 0;
  uint64_t server_requests_acknowledge = 0;
  uint64_t server_requests_snapshot = 0;
  uint64_t server_requests_metrics = 0;
  uint64_t server_requests_ping = 0;     ///< heartbeats received
  uint64_t server_errors = 0;        ///< kError responses served (all codes)
  uint64_t server_bad_frames = 0;    ///< connections closed on framing damage
  uint64_t server_applies_shed = 0;  ///< applies bounced by engine admission
  uint64_t server_cursor_evictions = 0;  ///< polls answered "cursor evicted"
  uint64_t server_backlog_high_water = 0;  ///< max retained backlog seen
  uint64_t server_dedup_hits = 0;   ///< retried requests answered from cache
  uint64_t server_dedup_stale = 0;  ///< retries older than the dedup window
  uint64_t server_deadline_rejections = 0;  ///< frames expired before dispatch
  uint64_t server_drain_sheds = 0;  ///< requests bounced while draining
  uint64_t server_sessions_recovered = 0;  ///< tokens re-seeded from disk

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
struct EngineCounters {
  std::atomic<uint64_t> ir_checks{0};
  std::atomic<uint64_t> ltr_checks{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> sticky_hits{0};
  std::atomic<uint64_t> cross_epoch_hits{0};
  std::atomic<uint64_t> stale_invalidations{0};
  std::atomic<uint64_t> wf_rejections{0};
  std::atomic<uint64_t> certainty_reuse{0};
  std::atomic<uint64_t> producible_reuse{0};
  std::atomic<uint64_t> producible_recomputes{0};
  std::atomic<uint64_t> epoch_advances{0};
  std::atomic<uint64_t> adom_advances{0};
  std::atomic<uint64_t> facts_applied{0};
  std::atomic<uint64_t> responses_applied{0};
  std::atomic<uint64_t> overlapped_applies{0};
  std::atomic<uint64_t> overlapped_checks{0};
  std::atomic<uint64_t> batch_calls{0};
  std::atomic<uint64_t> batch_items{0};
  std::atomic<uint64_t> uncached_ir_checks{0};
  std::atomic<uint64_t> uncached_ltr_checks{0};
  std::atomic<uint64_t> ir_time_ns{0};
  std::atomic<uint64_t> ltr_time_ns{0};
  std::atomic<uint64_t> apply_admission_rejections{0};

  void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
    c.fetch_add(n, std::memory_order_relaxed);
  }

  EngineStats Snapshot() const {
    auto ld = [](const std::atomic<uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    EngineStats s;
    s.ir_checks = ld(ir_checks);
    s.ltr_checks = ld(ltr_checks);
    s.cache_hits = ld(cache_hits);
    s.cache_misses = ld(cache_misses);
    s.sticky_hits = ld(sticky_hits);
    s.cross_epoch_hits = ld(cross_epoch_hits);
    s.stale_invalidations = ld(stale_invalidations);
    s.wf_rejections = ld(wf_rejections);
    s.certainty_reuse = ld(certainty_reuse);
    s.producible_reuse = ld(producible_reuse);
    s.producible_recomputes = ld(producible_recomputes);
    s.epoch_advances = ld(epoch_advances);
    s.adom_advances = ld(adom_advances);
    s.facts_applied = ld(facts_applied);
    s.responses_applied = ld(responses_applied);
    s.overlapped_applies = ld(overlapped_applies);
    s.overlapped_checks = ld(overlapped_checks);
    s.batch_calls = ld(batch_calls);
    s.batch_items = ld(batch_items);
    s.uncached_ir_checks = ld(uncached_ir_checks);
    s.uncached_ltr_checks = ld(uncached_ltr_checks);
    s.ir_time_ns = ld(ir_time_ns);
    s.ltr_time_ns = ld(ltr_time_ns);
    s.apply_admission_rejections = ld(apply_admission_rejections);
    return s;
  }
};

}  // namespace rar

#endif  // RAR_ENGINE_STATS_H_
