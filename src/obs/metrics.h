// The metric table: every counter, gauge and histogram the runtime
// exports, each declared once, as one row of an X-macro list per group.
// Everything else is generated from these rows: EngineStats' scalar
// fields and the live counter blocks with their folds (engine/stats.h),
// ObsSnapshot's and EngineObservability's histograms (obs/obs.h), and the
// rows both exporters walk (obs/export.cc). Adding a metric is adding its
// row here plus the code that bumps or fills it.
//
// A counter row is X(member, "name", Kind, Backing, "help"):
//  * member  - the EngineStats field and, for a Live row, the field of
//              the owner's counter block the hot path bumps;
//  * name    - the exported name within its group: the JSON key under the
//              group's object, and the Prometheus family
//              rar_<group>_<name>, with `_total` appended for a Counter;
//  * Kind    - Counter (a monotone total) or Gauge (a current level);
//  * Backing - Live: a relaxed atomic in the owner's block (EngineCounters
//              in the engine, StreamCounters in the stream registry,
//              SessionServer::Counters), folded into EngineStats by
//              FoldInto; Read: the owner fills the field when a snapshot
//              is taken (cache size, frontier, live sessions, WAL writer
//              totals, recovery and snapshot counts);
//  * help    - one line of text, the Prometheus HELP line.
// A histogram row is X(member, "help"): the ObsSnapshot and
// EngineObservability field, exported as latency.<member> in JSON and as
// the summary rar_<member> (plus the gauge rar_<member>_max).
#ifndef RAR_OBS_METRICS_H_
#define RAR_OBS_METRICS_H_

/// Expands to its arguments for a Live row and to nothing for a Read row.
#define RAR_METRIC_IF_LIVE(backing, ...) \
  RAR_METRIC_IF_LIVE_##backing(__VA_ARGS__)
#define RAR_METRIC_IF_LIVE_Live(...) __VA_ARGS__
#define RAR_METRIC_IF_LIVE_Read(...)

/// Relevance engine: decisions, the decision cache, applies, the frontier.
#define RAR_ENGINE_METRICS(X)                                                  \
  X(ir_checks, "ir_checks", Counter, Live,                                     \
    "Immediate-relevance decisions requested.")                                \
  X(ltr_checks, "ltr_checks", Counter, Live,                                   \
    "Long-term-relevance decisions requested.")                                \
  X(uncached_ir_checks, "uncached_ir_checks", Counter, Live,                   \
    "IR checks that ran the decider.")                                         \
  X(uncached_ltr_checks, "uncached_ltr_checks", Counter, Live,                 \
    "LTR checks that ran the decider.")                                        \
  X(cache_hits, "cache_hits", Counter, Live,                                   \
    "Verdicts served from the decision cache.")                                \
  X(cache_misses, "cache_misses", Counter, Live,                               \
    "Verdicts that ran a decider.")                                            \
  X(sticky_hits, "sticky_hits", Counter, Live,                                 \
    "Hits on growth-stable cache entries or on certainty.")                    \
  X(cross_epoch_hits, "cross_epoch_hits", Counter, Live,                       \
    "Hits that survived growth outside the verdict's footprint.")              \
  X(stale_invalidations, "stale_invalidations", Counter, Live,                 \
    "Cache entries dropped on a version-stamp mismatch.")                      \
  X(wf_rejections, "wf_rejections", Counter, Live,                             \
    "Checks refused because the access was not well-formed.")                  \
  X(certainty_reuse, "certainty_reuse", Counter, Live,                         \
    "Certainty results reused at an unchanged stamp.")                         \
  X(achievable_reuse, "achievable_reuse", Counter, Live,                       \
    "Uncached LTR checks the achievability memo answered without a search.")   \
  X(producible_reuse, "producible_reuse", Counter, Live,                       \
    "ProducibleDomains fixpoints reused.")                                     \
  X(producible_recomputes, "producible_recomputes", Counter, Live,             \
    "ProducibleDomains fixpoints recomputed.")                                 \
  X(epoch_advances, "epoch_advances", Counter, Live,                           \
    "Applied responses that grew the configuration.")                          \
  X(adom_advances, "adom_advances", Counter, Live,                             \
    "Applied responses that grew the active domain.")                          \
  X(facts_applied, "facts_applied", Counter, Live,                             \
    "New facts absorbed by ApplyResponse.")                                    \
  X(responses_applied, "responses_applied", Counter, Live,                     \
    "ApplyResponse calls, empty responses included.")                          \
  X(overlapped_applies, "overlapped_applies", Counter, Live,                   \
    "Applies that ran while checks were in flight.")                           \
  X(overlapped_checks, "overlapped_checks", Counter, Live,                     \
    "Checks that ran while applies were in flight.")                           \
  X(ir_time_ns, "ir_time_ns", Counter, Live,                                   \
    "Wall time inside uncached IR deciders, in nanoseconds.")                  \
  X(ltr_time_ns, "ltr_time_ns", Counter, Live,                                 \
    "Wall time inside uncached LTR deciders, in nanoseconds.")                 \
  X(cache_entries, "cache_entries", Gauge, Read,                               \
    "Live decision-cache entries.")                                            \
  X(cache_evictions, "cache_evictions", Counter, Read,                         \
    "Decision-cache entries evicted by the size cap.")                         \
  X(frontier_pending, "frontier_pending", Gauge, Read,                         \
    "Candidate accesses not yet performed.")                                   \
  X(frontier_performed, "frontier_performed", Gauge, Read,                     \
    "Accesses marked performed.")                                              \
  X(apply_admission_rejections, "apply_admission_rejections", Counter, Live,   \
    "Applies rejected at admission: max_inflight_applies were in flight.")

/// Stream registry (src/stream/): standing streams and their recheck
/// waves. The value gate (stream/registry.h) restamps bindings a landed
/// fact cannot reach; each recheck it does not narrow away is counted
/// under the reason it fell back: Adom growth (residual irrelevant-
/// uncertain bindings, and streams whose Adom waves are not delta-gated),
/// dependent-method LTR streams (the gate is off for them), or a hit the
/// semijoin narrowing could not bound. Rechecks the narrowing selected
/// are counted apart (semijoin, newborn).
#define RAR_STREAM_METRICS(X)                                                  \
  X(streams_registered, "registered", Gauge, Live,                             \
    "Standing streams; registrations of one query and options share one.")     \
  X(stream_subscriptions, "subscriptions", Gauge, Live,                        \
    "Stream registrations, each a cursor on one of the streams.")              \
  X(stream_bindings, "bindings", Gauge, Live,                                  \
    "Head bindings tracked, fresh ones included.")                             \
  X(stream_new_bindings, "new_bindings", Counter, Live,                        \
    "Bindings born from active-domain growth.")                                \
  X(stream_rechecks, "rechecks", Counter, Live,                                \
    "Per-binding re-evaluations run.")                                         \
  X(stream_skips, "skips", Counter, Live,                                      \
    "Bindings skipped because their stamp was still valid.")                   \
  X(stream_sticky_skips, "sticky_skips", Counter, Live,                        \
    "Bindings skipped as settled: certain or unsatisfiable.")                  \
  X(stream_events, "events", Counter, Live, "Delta notifications emitted.")    \
  X(stream_value_gate_skips, "value_gate_skips", Counter, Live,                \
    "Bindings a value-gated wave restamped without re-evaluation.")            \
  X(stream_value_gate_fallback_adom, "value_gate_fallback_adom", Counter,      \
    Live, "Rechecks on active-domain growth beyond what the gate selected.")   \
  X(stream_value_gate_fallback_dependent_ltr,                                  \
    "value_gate_fallback_dependent_ltr", Counter, Live,                        \
    "Rechecks because the stream tracks LTR under dependent methods.")         \
  X(stream_value_gate_fallback_unconstrained,                                  \
    "value_gate_fallback_unconstrained", Counter, Live,                        \
    "Gated rechecks of bindings the semijoin narrowing could not bound.")      \
  X(stream_value_gate_semijoin, "value_gate_semijoin_rechecks", Counter,       \
    Live, "Gated rechecks selected through the non-head value index.")         \
  X(stream_value_gate_newborn, "value_gate_newborn_rechecks", Counter, Live,   \
    "Rechecks of bindings minted by a delta-gated growth wave.")               \
  X(stream_retained_evicted, "retained_evicted", Counter, Live,                \
    "Retained events evicted by the retain cap.")

/// Persistence (src/persist/), filled by an attached DurableSession.
#define RAR_PERSIST_METRICS(X)                                                 \
  X(wal_records, "wal_records", Counter, Read,                                 \
    "Records appended to the WAL.")                                            \
  X(wal_bytes, "wal_bytes", Counter, Read,                                     \
    "Framed bytes appended to the WAL.")                                       \
  X(wal_fsyncs, "wal_fsyncs", Counter, Read, "Physical fsyncs issued.")        \
  X(wal_commit_batches, "wal_commit_batches", Counter, Read,                   \
    "Group-commit leader rounds.")                                             \
  X(wal_commit_waiters, "wal_commit_waiters", Counter, Read,                   \
    "Commits absorbed into another commit's fsync.")                           \
  X(snapshots_written, "snapshots_written", Counter, Read,                     \
    "Snapshot files sealed.")                                                  \
  X(snapshot_bytes, "snapshot_bytes", Gauge, Read,                             \
    "Bytes in the last sealed snapshot.")                                      \
  X(replay_records, "replay_records", Counter, Read,                           \
    "WAL records replayed at recovery.")                                       \
  X(replay_facts, "replay_facts", Counter, Read,                               \
    "Facts re-absorbed from replay.")                                          \
  X(wal_truncated_tails, "wal_truncated_tails", Counter, Read,                 \
    "Torn or corrupt WAL tails truncated at recovery.")

/// Session server (src/server/).
#define RAR_SERVER_METRICS(X)                                                  \
  X(server_sessions_opened, "sessions_opened", Counter, Live,                  \
    "Fresh sessions admitted.")                                                \
  X(server_sessions_resumed, "sessions_resumed", Counter, Live,                \
    "Hello calls that resumed a token.")                                       \
  X(server_sessions_retired, "sessions_retired", Counter, Live,                \
    "Sessions closed by Goodbye.")                                             \
  X(server_sessions_reaped, "sessions_reaped", Counter, Live,                  \
    "Idle sessions reaped.")                                                   \
  X(server_sessions_shed, "sessions_shed", Counter, Live,                      \
    "Hellos rejected by the admission cap.")                                   \
  X(server_sessions_active, "sessions_active", Gauge, Read,                    \
    "Live sessions.")                                                          \
  X(server_requests, "requests", Counter, Live,                                \
    "Frames dispatched, all types.")                                           \
  X(server_requests_hello, "requests_hello", Counter, Live,                    \
    "Hello frames dispatched.")                                                \
  X(server_requests_register_query, "requests_register_query", Counter,        \
    Live, "RegisterQuery frames dispatched.")                                  \
  X(server_requests_register_stream, "requests_register_stream", Counter,      \
    Live, "RegisterStream frames dispatched.")                                 \
  X(server_requests_apply, "requests_apply", Counter, Live,                    \
    "Apply frames dispatched.")                                                \
  X(server_requests_poll, "requests_poll", Counter, Live,                      \
    "Poll frames dispatched.")                                                 \
  X(server_requests_acknowledge, "requests_acknowledge", Counter, Live,        \
    "Acknowledge frames dispatched.")                                          \
  X(server_requests_snapshot, "requests_snapshot", Counter, Live,              \
    "Snapshot frames dispatched.")                                             \
  X(server_requests_metrics, "requests_metrics", Counter, Live,                \
    "Metrics frames dispatched.")                                              \
  X(server_requests_ping, "requests_ping", Counter, Live,                      \
    "Heartbeats received.")                                                    \
  X(server_errors, "errors", Counter, Live,                                    \
    "Error responses served, all codes.")                                      \
  X(server_bad_frames, "bad_frames", Counter, Live,                            \
    "Connections closed on framing damage.")                                   \
  X(server_applies_shed, "applies_shed", Counter, Live,                        \
    "Applies bounced by engine admission.")                                    \
  X(server_cursor_evictions, "cursor_evictions", Counter, Live,                \
    "Polls answered that the cursor was evicted.")                             \
  X(server_backlog_high_water, "backlog_high_water", Gauge, Live,              \
    "Largest retained backlog a poll saw.")                                    \
  X(server_dedup_hits, "dedup_hits", Counter, Live,                            \
    "Retried requests answered from the dedup window.")                        \
  X(server_dedup_stale, "dedup_stale", Counter, Live,                          \
    "Retries older than the dedup window.")                                    \
  X(server_deadline_rejections, "deadline_rejections", Counter, Live,          \
    "Frames whose deadline expired before dispatch.")                          \
  X(server_drain_sheds, "drain_sheds", Counter, Live,                          \
    "Requests bounced while draining.")                                        \
  X(server_sessions_recovered, "sessions_recovered", Counter, Live,            \
    "Session tokens re-seeded from disk.")

/// Latency and width histograms, recorded into EngineObservability.
#define RAR_HISTOGRAM_METRICS(X)                                               \
  X(ir_decider_ns, "Uncached IR decider wall time, in nanoseconds.")           \
  X(ltr_decider_ns, "Uncached LTR decider wall time, in nanoseconds.")         \
  X(apply_ns, "ApplyResponse end-to-end latency, in nanoseconds.")             \
  X(wave_ns, "Stream recheck-wave duration, in nanoseconds.")                  \
  X(wave_width, "Bindings re-evaluated per recheck wave.")                     \
  X(queue_wait_ns, "Always empty: every check runs on its caller's thread.")   \
  X(source_ns, "Simulated source round trip, in nanoseconds.")                 \
  X(wal_fsync_ns, "Physical WAL fsync duration, in nanoseconds.")              \
  X(wal_commit_ns, "WaitDurable end to end (group commit), in nanoseconds.")   \
  X(server_request_ns, "Server dispatch of any request, in nanoseconds.")      \
  X(server_apply_ns, "Apply requests end to end, in nanoseconds.")             \
  X(server_poll_ns, "Poll requests end to end, in nanoseconds.")               \
  X(server_register_ns,                                                        \
    "RegisterQuery and RegisterStream requests end to end, in nanoseconds.")

#endif  // RAR_OBS_METRICS_H_
