// RarClient: the typed client over any ClientChannel. Owns the session
// token (Hello mints it, Resume re-presents it after a reconnect) and
// turns wire errors back into Status codes:
//
//   kRetryLater       -> ResourceExhausted  (backoff hint in last_error())
//   kShuttingDown     -> Unavailable        (drain; retry hint set)
//   kDeadlineExceeded -> DeadlineExceeded
//   kStaleRequest     -> FailedPrecondition
//   kCursorEvicted    -> FailedPrecondition (resume point in last_error().detail)
//   kNotFound         -> NotFound
//   kBadRequest       -> InvalidArgument
//   everything else   -> Internal / FailedPrecondition
//
// Retries: give the client a RetryPolicy and every call becomes
// at-least-once with exactly-once *effect* — the client owns request
// ids, a retry re-sends the original id, and the server's per-session
// dedup window answers a duplicate from cache instead of re-executing.
// Retry-eligible failures are transport kUnavailable and the server's
// kRetryLater / kShuttingDown sheds (honoring their retry_after_ms
// hint); backoff is exponential with decorrelated jitter from a seeded
// Rng, so tests replay identically. A per-call deadline
// (RetryPolicy::call_timeout_ms) rides every frame; when it expires the
// call fails kDeadlineExceeded — retry sleeps never outlive it.
//
// Liveness: Ping() heartbeats refresh the server's idle clock and learn
// the drain flag; `peer_suspected()` trips after
// RetryPolicy::suspect_after consecutive transport failures and resets
// on the next success — a cheap dead-peer detector for supervisors.
//
// After any failed call, `last_error()` holds the decoded WireError —
// retry_after_ms for shed requests, the evicted-through sequence for
// evicted cursors. One client per thread; share the SessionServer, not
// the channel.
#ifndef RAR_SERVER_CLIENT_H_
#define RAR_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "server/transport.h"
#include "util/rng.h"

namespace rar {

/// \brief Client-side retry knobs. The default policy never retries
/// (max_attempts = 1) — opting in is explicit because retries only have
/// exactly-once effect against a server with a dedup window.
struct RetryPolicy {
  /// Total attempts per call, first try included. 1 = never retry.
  uint32_t max_attempts = 1;
  /// First backoff; later sleeps use decorrelated jitter
  /// (random in [base, prev*3], capped by max_backoff_ms).
  uint32_t base_backoff_ms = 5;
  uint32_t max_backoff_ms = 500;
  /// Per-call deadline stamped on every frame (and bounding the whole
  /// retry loop, sleeps included). 0 = no deadline.
  uint32_t call_timeout_ms = 0;
  /// Consecutive transport failures before peer_suspected() trips.
  uint32_t suspect_after = 3;
  /// Seed for the jitter Rng: deterministic backoff sequences in tests.
  uint64_t jitter_seed = 0x7e7e7e7e;
};

class RarClient {
 public:
  /// `schema`/`acs` are the client's copies for payload codecs; they must
  /// agree with the server's by name (that is all the wire format needs).
  RarClient(ClientChannel* channel, const Schema* schema,
            const AccessMethodSet* acs, RetryPolicy retry = {})
      : channel_(channel),
        schema_(schema),
        acs_(acs),
        retry_(retry),
        jitter_(retry.jitter_seed) {}

  /// Opens a fresh session. (Under retries a lost Hello response can
  /// strand an extra server-side session; it holds no handles and idle
  /// reaping retires it — the token the client keeps is always the one
  /// the server answered.)
  Status Hello();
  /// Resumes the session `token` names (after a reconnect or a client
  /// restart); fails with FailedPrecondition if the server reaped it.
  /// Request numbering continues from the session's next free id, so a
  /// new client object never reuses an id the session already recorded.
  Status Resume(const SessionToken& token);

  const SessionToken& token() const { return token_; }
  bool resumed() const { return resumed_; }

  Result<uint32_t> RegisterQuery(const UnionQuery& query);
  Result<uint32_t> RegisterStream(const UnionQuery& query,
                                  const StreamOptions& options = {});
  Result<ApplyResult> Apply(const Access& access,
                            const std::vector<Fact>& response);
  Result<StreamDelta> Poll(uint32_t handle, uint64_t cursor);
  Status Acknowledge(uint32_t handle, uint64_t upto);
  Result<StreamSnapshot> Snapshot(uint32_t handle);
  /// Returns the exposition body (JSON or Prometheus text).
  Result<std::string> Metrics(MetricsFormat format = MetricsFormat::kJson);
  /// Heartbeat: refreshes the server-side idle clock, reports drain.
  Result<PingResponse> Ping();
  /// Retire the session. Under retries, a kUnknownSession answer to a
  /// *retried* Goodbye counts as success: the lost first attempt landed.
  Status Goodbye();

  /// The last kError payload received; meaningful right after a failure.
  const WireError& last_error() const { return last_error_; }

  /// Dead-peer suspicion: `suspect_after` consecutive transport-level
  /// failures with no success in between.
  bool peer_suspected() const { return peer_suspected_; }

  /// Retry accounting (bench: amplification = attempts / calls).
  uint64_t calls_issued() const { return calls_issued_; }
  uint64_t attempts_issued() const { return attempts_issued_; }
  uint64_t retries_exhausted() const { return retries_exhausted_; }

 private:
  /// One logical call: assign the request id once, then send/await up to
  /// max_attempts times, unwrapping kError and checking response types.
  Result<std::string> Call(MessageType request, std::string_view payload);

  ClientChannel* channel_;
  const Schema* schema_;
  const AccessMethodSet* acs_;
  const RetryPolicy retry_;
  Rng jitter_;
  SessionToken token_;
  bool resumed_ = false;
  WireError last_error_;
  uint64_t next_request_id_ = 1;
  uint32_t consecutive_transport_failures_ = 0;
  bool peer_suspected_ = false;
  uint64_t calls_issued_ = 0;
  uint64_t attempts_issued_ = 0;
  uint64_t retries_exhausted_ = 0;
};

}  // namespace rar

#endif  // RAR_SERVER_CLIENT_H_
