// SessionServer: the concurrent multi-client session layer over one
// RelevanceEngine + RelevanceStreamRegistry (optionally backed by a
// DurableSession, in which case every mutation funnels through the WAL).
//
// The server is transport-agnostic: it consumes decoded `WireFrame`s and
// produces encoded response frames. Transports (src/server/transport.h —
// in-process loopback and a TCP poll loop) own the byte streams and the
// FrameAssemblers; many transport threads may call `HandleFrame`
// concurrently — the engine and registry are internally synchronised, the
// session table sits under a shared_mutex, and each session's handle
// tables under the session's own mutex.
//
// Sessions are token-addressed, not connection-bound: Hello mints (or
// resumes) a {session_id, nonce} token, and every later request presents
// it. A client that reconnects — after a transport drop or a process
// restart against a durable server — resumes its handles and stream
// cursors by replaying the token, until idle reaping retires the session.
//
// Fault tolerance (src/persist/dedup.h, DESIGN.md "Fault tolerance"):
//  * exactly-once effect — every mutating request (apply, register) is
//    keyed by its client-owned request id through a per-session dedup
//    window; a retry whose original executed answers the cached response
//    instead of re-executing. Durable-backed servers persist the window
//    (WAL-tagged records + snapshot sessions section), so a retry that
//    straddles a server crash still cannot double-apply.
//  * deadlines — frames carry an absolute deadline; expired work is
//    rejected with kDeadlineExceeded before any engine mutation.
//  * heartbeats — kPing refreshes the session's idle clock and reports
//    the drain flag, giving both ends dead-peer detection.
//  * graceful drain — BeginDrain stops admitting fresh sessions, sheds
//    mutations with kShuttingDown + a retry hint, waits for in-flight
//    mutations to quiesce, and flushes durable state. Reads (poll,
//    snapshot, metrics, ping, goodbye) keep working so clients can wind
//    down cleanly.
//
// Load shedding, three layers (each surfaced as a typed wire error and a
// counter):
//  * admission — Hello beyond ServerOptions::max_sessions is bounced with
//    kRetryLater + retry_after_ms;
//  * apply backpressure — the engine bounds in-flight applies
//    (EngineOptions::max_inflight_applies); a ResourceExhausted apply
//    surfaces as kRetryLater;
//  * backlog — every registered stream gets a retention cap
//    (max_backlog_events). Sessions registering the same query share one
//    stream, each through its own subscription: its own sequence numbers
//    from 1, its own acknowledged cursor and its own backlog. A lagging
//    subscriber loses its oldest events (kCursorEvicted, with the horizon
//    in its own numbering, tells it to re-snapshot) instead of pinning
//    memory, while the other subscribers of the stream keep polling
//    gap-free. When a subscription's backlog crosses
//    degrade_backlog_events, its stream is degraded to conservative
//    full-recheck mode (RelevanceStreamRegistry::Degrade), shedding the
//    gate indexes' memory; streams_degraded counts streams, not
//    subscribers. Degrading never changes verdicts — force_full_recheck
//    is verdict-identical by the value gate's soundness argument — so
//    served answers keep exact parity with a fresh decider.
#ifndef RAR_SERVER_SERVER_H_
#define RAR_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "persist/dedup.h"
#include "persist/durable.h"
#include "server/protocol.h"
#include "stream/registry.h"

namespace rar {

/// \brief Serving-layer knobs.
struct ServerOptions {
  /// Live-session admission cap; Hellos beyond it shed with kRetryLater.
  /// 0 = unbounded.
  uint32_t max_sessions = 0;
  /// Backoff hint carried by kRetryLater errors.
  uint32_t retry_after_ms = 50;
  /// Backoff hint carried by kShuttingDown errors while draining.
  uint32_t drain_retry_after_ms = 200;
  /// Per-stream retained-event cap stamped onto every RegisterStream
  /// (tightens a client-supplied StreamOptions::retain_cap, never loosens
  /// it). 0 = leave the client's cap (possibly unbounded).
  uint64_t max_backlog_events = 0;
  /// Degrade a stream to conservative full-recheck mode once a
  /// subscription's retained backlog exceeds this (checked at poll time).
  /// 0 = never degrade.
  uint64_t degrade_backlog_events = 0;
  /// Reap sessions idle longer than this (checked opportunistically on
  /// Hello and via ReapIdleSessions). 0 = never reap.
  uint64_t idle_timeout_ms = 0;
  /// Per-session request-dedup window capacity (in-memory serving; the
  /// durable path takes its capacity from PersistOptions::dedup_window).
  /// 0 disables dedup — retried mutations re-execute.
  size_t dedup_window = 256;
};

/// \brief The session layer. Construct over a live engine+registry (in-
/// memory serving) or over a DurableSession (WAL-backed serving); attach
/// points are the same either way. Attaches itself to the engine as an
/// ApplyListener purely so its counters join `engine.stats()` and the
/// exporter; detaches in the destructor (quiesce transports first).
class SessionServer : public ApplyListener {
 public:
  SessionServer(RelevanceEngine* engine, RelevanceStreamRegistry* registry,
                ServerOptions options = {});
  /// Durable-backed: every mutation (apply, registration, acknowledge)
  /// funnels through `durable`, so served state survives a crash and
  /// tokens resume across server restarts. Serving sessions recovered
  /// from the durable directory are re-seeded into the token table, so a
  /// client can resume its pre-crash token against the new process.
  explicit SessionServer(DurableSession* durable, ServerOptions options = {});
  ~SessionServer() override;

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Dispatches one decoded request frame and returns the encoded
  /// response frame (always exactly one: a *Ok or a kError with the same
  /// request_id). Thread-safe.
  std::string HandleFrame(const WireFrame& frame);

  /// Counts one framing-corruption event (transports call this when a
  /// connection's FrameAssembler goes corrupt and is closed).
  void NoteBadFrame();

  /// Reaps sessions idle past ServerOptions::idle_timeout_ms; returns the
  /// number reaped. Also run opportunistically by Hello admission.
  size_t ReapIdleSessions();

  /// Graceful drain: stop admitting fresh sessions, shed mutations with
  /// kShuttingDown + drain_retry_after_ms, wait until in-flight mutations
  /// quiesce, then flush durable state. Reads keep working. Idempotent;
  /// blocks until quiescent. The server stays usable for reads (and for
  /// Goodbye) afterwards — destruction remains the caller's job. Returns
  /// the durable flush's status (OK for in-memory serving).
  Status BeginDrain();
  bool draining() const {
    return draining_.load(std::memory_order_seq_cst);
  }

  size_t num_sessions() const;

  RelevanceEngine& engine() { return *engine_; }
  const ServerOptions& options() const { return options_; }

  // ApplyListener (stats only):
  void OnApply(const ApplyEvent& event) override { (void)event; }
  void ContributeStats(EngineStats* stats) const override;

 private:
  struct ServerSession {
    explicit ServerSession(size_t dedup_capacity) : dedup(dedup_capacity) {}
    uint64_t id = 0;
    uint64_t nonce = 0;
    std::mutex mu;  ///< guards the handle tables + dedup window below
    std::vector<QueryId> queries;   ///< wire handle -> engine QueryId
    std::vector<StreamId> streams;  ///< wire handle -> subscription id
    std::vector<char> degraded;     ///< parallel to streams
    /// In-memory request dedup (durable serving probes the persisted
    /// window in DurableSession instead). Guarded by mu — holding mu
    /// across probe+execute+record is what makes a concurrent retry of
    /// the same id on a second connection safe, not just a same-channel
    /// retry.
    DedupWindow dedup;
    std::atomic<uint64_t> last_active_ms{0};
  };

  /// Monotonic wall clock for idle accounting (ms).
  static uint64_t NowMs();
  /// Real wall clock (Unix ms) — deadlines cross process boundaries.
  static uint64_t UnixMs();

  std::shared_ptr<ServerSession> FindSession(const SessionToken& token,
                                             WireError* error);

  // Per-type handlers: frame in, (response payload | error) out. The
  // response MessageType is the request's + 64 on success.
  std::string HandleHello(const WireFrame& frame, WireError* error);
  std::string HandleRegisterQuery(const WireFrame& frame, WireError* error);
  std::string HandleRegisterStream(const WireFrame& frame, WireError* error);
  std::string HandleApply(const WireFrame& frame, WireError* error);
  std::string HandlePoll(const WireFrame& frame, WireError* error);
  std::string HandleAcknowledge(const WireFrame& frame, WireError* error);
  std::string HandleSnapshot(const WireFrame& frame, WireError* error);
  std::string HandleMetrics(const WireFrame& frame, WireError* error);
  std::string HandleGoodbye(const WireFrame& frame, WireError* error);
  std::string HandlePing(const WireFrame& frame, WireError* error);

  /// Fills `error` with the kShuttingDown shed and counts it.
  void ShedDraining(WireError* error);

  /// Maps a durable TaggedOutcome probe hit/stale to a response or error.
  /// Returns true when the outcome fully answered the request (hit or
  /// stale); false means kFresh — the caller finishes the fresh path.
  bool AnswerFromOutcome(const DurableSession::TaggedOutcome& outcome,
                         uint8_t request_type, std::string* payload,
                         WireError* error);

  /// Post-poll backlog policing for one stream handle: high-water
  /// tracking and the degrade threshold.
  void PoliceBacklog(ServerSession& session, uint32_t handle, StreamId sid);

  RelevanceEngine* engine_;
  RelevanceStreamRegistry* registry_;
  DurableSession* durable_;  ///< nullptr when serving in-memory
  const ServerOptions options_;

  mutable std::shared_mutex sessions_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<ServerSession>> sessions_;
  /// Registration mints fresh constants (Prop 2.2) through the shared
  /// interner, which is not thread-safe; with many clients registering
  /// concurrently the server is the one place to serialize them. Also
  /// keeps the server's handle tables in lockstep with the durable
  /// session's (both append under this mutex).
  std::mutex register_mu_;
  std::atomic<uint64_t> next_session_id_{1};
  const uint64_t nonce_seed_;

  /// Drain protocol: mutators increment inflight_mutations_ *then* check
  /// draining_ (both seq_cst); BeginDrain sets draining_ *then* waits for
  /// inflight to reach zero. Any mutation that missed the flag is
  /// therefore visible in the count BeginDrain watches — no mutation can
  /// slip between the flag and the quiesce.
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> inflight_mutations_{0};

  struct Counters {
    std::atomic<uint64_t> sessions_opened{0};
    std::atomic<uint64_t> sessions_resumed{0};
    std::atomic<uint64_t> sessions_retired{0};
    std::atomic<uint64_t> sessions_reaped{0};
    std::atomic<uint64_t> sessions_shed{0};
    std::atomic<uint64_t> sessions_recovered{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> requests_hello{0};
    std::atomic<uint64_t> requests_register_query{0};
    std::atomic<uint64_t> requests_register_stream{0};
    std::atomic<uint64_t> requests_apply{0};
    std::atomic<uint64_t> requests_poll{0};
    std::atomic<uint64_t> requests_acknowledge{0};
    std::atomic<uint64_t> requests_snapshot{0};
    std::atomic<uint64_t> requests_metrics{0};
    std::atomic<uint64_t> requests_ping{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> bad_frames{0};
    std::atomic<uint64_t> applies_shed{0};
    std::atomic<uint64_t> streams_degraded{0};
    std::atomic<uint64_t> cursor_evictions{0};
    std::atomic<uint64_t> backlog_high_water{0};
    std::atomic<uint64_t> dedup_hits{0};
    std::atomic<uint64_t> dedup_stale{0};
    std::atomic<uint64_t> deadline_rejections{0};
    std::atomic<uint64_t> drain_sheds{0};
  };
  mutable Counters counters_;
};

}  // namespace rar

#endif  // RAR_SERVER_SERVER_H_
