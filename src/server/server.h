// SessionServer: the concurrent multi-client session layer over one
// DurableSession — the store that holds the RelevanceEngine, its
// RelevanceStreamRegistry and every serving session. In-memory serving is
// a store without a log over the caller's engine and registry; durable
// serving is a store opened over a WAL directory. Every handler makes one
// call into the store, so both modes run the same path and answer alike.
//
// The server is transport-agnostic: it consumes decoded `WireFrame`s and
// produces encoded response frames. Transports (src/server/transport.h —
// in-process loopback and a TCP poll loop) own the byte streams and the
// FrameAssemblers; many transport threads may call `HandleFrame`
// concurrently — the engine and registry are internally synchronised, and
// the store locks its session table and each session (see durable.h for
// the lock order). The server itself keeps only its options, its counters
// and the drain protocol.
//
// Sessions are token-addressed, not connection-bound: Hello mints (or
// resumes) a {session_id, nonce} token, and every later request presents
// it. A client that reconnects — after a transport drop or a process
// restart against a durable server — resumes its handles and stream
// cursors by replaying the token, until idle reaping retires the session.
//
// Fault tolerance (src/persist/dedup.h, DESIGN.md "Fault tolerance"):
//  * exactly-once effect — every mutating request (apply, register) is
//    keyed by its client-owned request id through the session's dedup
//    window (ServerOptions::dedup_window entries); a retry whose original
//    executed answers the cached response instead of re-executing. With a
//    log the window is persisted (WAL-tagged records + snapshot sessions
//    section), so a retry that straddles a server crash still cannot
//    double-apply.
//  * deadlines — frames carry an absolute deadline; expired work is
//    rejected with kDeadlineExceeded before any engine mutation.
//  * heartbeats — kPing refreshes the session's idle clock and reports
//    the drain flag, giving both ends dead-peer detection.
//  * graceful drain — BeginDrain stops admitting fresh sessions, sheds
//    mutations with kShuttingDown + a retry hint, waits for in-flight
//    mutations to quiesce, and flushes the store. Reads (poll, snapshot,
//    metrics, ping, goodbye) keep working so clients can wind down
//    cleanly.
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
//    gap-free. backlog_high_water records the largest retained backlog a
//    poll saw, so an operator can size the cap.
#ifndef RAR_SERVER_SERVER_H_
#define RAR_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/engine.h"
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
  /// Reap sessions idle longer than this (checked opportunistically on
  /// Hello and via ReapIdleSessions). 0 = never reap.
  uint64_t idle_timeout_ms = 0;
  /// Per-session request-dedup window capacity, for every session the
  /// server serves (recovered ones included). 0 disables dedup — retried
  /// mutations re-execute.
  size_t dedup_window = 256;
};

/// \brief The session layer. Construct over a live engine+registry (in-
/// memory serving: the server builds a store without a log over them) or
/// over a DurableSession (WAL-backed serving); both serve through the same
/// store calls. Attaches itself to the engine as an ApplyListener purely
/// so its counters join `engine.stats()` and the exporter; detaches in the
/// destructor (quiesce transports first).
class SessionServer : public ApplyListener {
 public:
  SessionServer(RelevanceEngine* engine, RelevanceStreamRegistry* registry,
                ServerOptions options = {});
  /// Durable-backed: every mutation (apply, registration, acknowledge)
  /// funnels through `durable`, so served state survives a crash and
  /// tokens resume across server restarts. Serving sessions `durable`
  /// recovered are in its session table already, so a client can resume
  /// its pre-crash token against the new process.
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
  /// quiesce, then flush the store. Reads keep working. Idempotent;
  /// blocks until quiescent. The server stays usable for reads (and for
  /// Goodbye) afterwards — destruction remains the caller's job. Returns
  /// the store's flush status (OK without a log).
  Status BeginDrain();
  bool draining() const {
    return draining_.load(std::memory_order_seq_cst);
  }

  size_t num_sessions() const { return store_->num_server_sessions(); }

  RelevanceEngine& engine() { return store_->engine(); }
  const ServerOptions& options() const { return options_; }

  // ApplyListener (stats only):
  void OnApply(const ApplyEvent& event) override { (void)event; }
  void ContributeStats(EngineStats* stats) const override;

 private:
  using Session = DurableSession::ServingSession;

  /// In-memory serving: owns the store it builds.
  SessionServer(std::unique_ptr<DurableSession> store, ServerOptions options);

  /// Real wall clock (Unix ms) — deadlines cross process boundaries.
  static uint64_t UnixMs();

  std::shared_ptr<Session> FindSession(const SessionToken& token,
                                       WireError* error);
  /// The subscription behind a session's stream handle; false (kNotFound
  /// in `error`) for an unknown handle.
  bool ResolveStream(Session& session, uint32_t handle, StreamId* sid,
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

  /// Maps a deduped mutation's outcome to the wire, the one place that
  /// does: the response payload, or `error` for a failed mutation, a
  /// stale request id, or a hit whose original had another type.
  std::string Answer(Result<DurableSession::Outcome> outcome,
                     MessageType type, WireError* error);


  std::unique_ptr<DurableSession> owned_store_;  ///< in-memory serving's
  DurableSession* store_;
  const ServerOptions options_;

  /// Drain protocol: mutators increment inflight_mutations_ *then* check
  /// draining_ (both seq_cst); BeginDrain sets draining_ *then* waits for
  /// inflight to reach zero. Any mutation that missed the flag is
  /// therefore visible in the count BeginDrain watches — no mutation can
  /// slip between the flag and the quiesce.
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> inflight_mutations_{0};

  RAR_COUNTER_BLOCK(Counters, RAR_SERVER_METRICS);
  mutable Counters counters_;
};

}  // namespace rar

#endif  // RAR_SERVER_SERVER_H_
