// DurableSession: the store behind the serving layer — a RelevanceEngine,
// its RelevanceStreamRegistry and every serving session, optionally backed
// by a write-ahead log.
//
// With a log (`Open`), the store owns the engine and registry and funnels
// every mutating operation — ApplyResponse, direct query registration,
// stream registration, subscriber acknowledgements, serving-session
// open/retire — through one mutex and the WAL. Applies are logged *inside*
// the engine's apply critical section (PersistHook::LogApply, see
// engine.h) and made durable before any listener observes them; the other
// operations are serialized by the store mutex, so WAL sequence order
// equals execution order and sequential replay is deterministic.
//
// Without a log (the public constructor), the store works over the
// caller's engine and registry and does no log work at all: it appends
// nothing, encodes no WAL payload and attaches no PersistHook. Applies and
// acknowledgements then take no store mutex, so applies of different
// serving sessions reach the engine concurrently; registrations stay
// serialized under it. This is how an in-memory SessionServer serves.
//
// `Open` is also recovery: it loads the newest readable snapshot (if
// any), rebuilds the configuration in version-exact order, re-registers
// direct queries and streams, restores serving sessions, truncates the
// WAL's torn tail, replays the records past the snapshot, and only then
// attaches the hook and opens the log for appending. A store recovered
// from `dir` is VersionVector-identical to the crashed one, its streams
// resume from their persisted cursors (`PollAfter(acked)` is gap-free) and
// its serving sessions are back in the session table, tokens, handles and
// dedup windows included.
//
// Contract: after Open, drive all mutations through the store — calling
// `engine().ApplyResponse` directly would still be logged (the hook is
// attached) but would race the store's snapshot bookkeeping.
#ifndef RAR_PERSIST_DURABLE_H_
#define RAR_PERSIST_DURABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "persist/dedup.h"
#include "persist/io.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "stream/registry.h"
#include "util/status.h"

namespace rar {

/// \brief Durability knobs of one session.
struct PersistOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kGroupCommit;
  /// Write a snapshot (and truncate covered WAL segments) automatically
  /// after this many WAL records since the last one. 0 = only explicit
  /// WriteSnapshot calls.
  uint64_t snapshot_every_records = 0;
  /// Filesystem to run against; nullptr = the real PosixEnv. Fault tests
  /// pass a FaultInjectingEnv.
  PersistEnv* env = nullptr;
};

/// \brief What Open's recovery pass found and did.
struct RecoveryInfo {
  bool from_snapshot = false;
  uint64_t snapshot_sequence = 0;  ///< last WAL seq the snapshot covered
  uint64_t replayed_records = 0;
  uint64_t replayed_facts = 0;   ///< facts re-absorbed by replayed applies
  uint64_t truncated_tails = 0;  ///< torn/corrupt WAL tails dropped
};

class DurableSession : public PersistHook, public ApplyListener {
 public:
  /// Opens (or recovers) the store persisted under `dir`. `bootstrap`
  /// is the first-boot configuration; it must be passed identically on
  /// every Open — it is not logged, it is the replay origin until the
  /// first snapshot subsumes it. `schema` and `acs` must outlive the
  /// store and match what the directory was written with.
  static Result<std::unique_ptr<DurableSession>> Open(
      const Schema& schema, const AccessMethodSet& acs,
      const Configuration& bootstrap, const std::string& dir,
      PersistOptions options = {}, EngineOptions engine_options = {});

  /// A store without a log over the caller's `engine` and `registry`
  /// (both must outlive it). Nothing it does survives the process.
  DurableSession(RelevanceEngine* engine, RelevanceStreamRegistry* registry);

  ~DurableSession() override;

  DurableSession(const DurableSession&) = delete;
  DurableSession& operator=(const DurableSession&) = delete;

  RelevanceEngine& engine() { return *engine_; }
  const RelevanceEngine& engine() const { return *engine_; }
  RelevanceStreamRegistry& streams() { return *registry_; }
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Logged, durable ApplyResponse. Returns the number of new facts.
  Result<int> Apply(const Access& access, const std::vector<Fact>& response);

  /// Logged direct query registration. Engine QueryIds are stable across
  /// WAL replay but can shift across a snapshot restore (streams register
  /// their binding queries too); `direct_query_ids()` maps registration
  /// order to the current engine id either way.
  Result<QueryId> RegisterQuery(const UnionQuery& query);
  const std::vector<QueryId>& direct_query_ids() const {
    return direct_qids_;
  }

  /// Logged stream registration. Forces StreamOptions::retain_events so
  /// the persisted cursor always has events to resume into.
  Result<StreamId> RegisterStream(const UnionQuery& query,
                                  StreamOptions options = {});

  // Reads pass straight through to the registry.
  StreamDelta Poll(StreamId id) { return registry_->Poll(id); }
  Result<StreamDelta> PollAfter(StreamId id, uint64_t cursor) {
    return registry_->PollAfter(id, cursor);
  }

  /// Logged, durable subscriber acknowledgement: the cursor survives a
  /// crash, so a restarted subscriber resumes with PollAfter(acked).
  Status Acknowledge(StreamId id, uint64_t upto);

  /// Makes everything logged so far durable (graceful-shutdown flush);
  /// OK at once without a log.
  Status Flush();

  // ---- serving sessions ---------------------------------------------------
  // The store keeps the one table of serving sessions a SessionServer
  // serves: each session's token, wire-handle tables, request-dedup window
  // and idle clock. With a log the table is persisted (kSessionOpen /
  // kSessionRetire and tagged mutation records, plus the snapshot's
  // sessions section), so a client whose response was lost can retry the
  // same request id across a server crash without double-applying
  // (at-least-once delivery, exactly-once effect).
  //
  // Lock order: store mutex -> session mutex -> table lock; nothing takes
  // them in reverse. With a log every mutation holds the store mutex, so a
  // snapshot (which holds it too) reads every window without taking
  // session mutexes.

  /// \brief One serving session.
  struct ServingSession {
    explicit ServingSession(size_t dedup_capacity) : dedup(dedup_capacity) {}
    uint64_t id = 0;
    uint64_t nonce = 0;
    /// Guards the handle tables and the dedup window. A mutation holds it
    /// across probe, execute and record, so a concurrent retry of the same
    /// request id on a second connection waits for the original.
    std::mutex mu;
    std::vector<uint32_t> query_regs;  ///< handle -> direct-reg. index
    std::vector<StreamId> streams;     ///< handle -> subscription id
    DedupWindow dedup;
    /// Idle clock (monotonic ms); stamped only under the table lock.
    std::atomic<uint64_t> last_active_ms{0};
  };

  /// \brief What a deduped mutation did.
  struct Outcome {
    /// kFresh: executed now. kHit: answered from the dedup window, store
    /// untouched. kStale: evicted from the window long ago; not executed.
    DedupWindow::Verdict verdict = DedupWindow::Verdict::kFresh;
    uint8_t type = 0;      ///< wire type byte of the original request
    std::string response;  ///< encoded response payload (kFresh / kHit)
  };

  /// Admits a serving session: mints its token and, with a log, makes it
  /// durable before returning, so a client that learns the token can
  /// resume it after a crash. Returns nullptr when `max_sessions` (0 =
  /// unbounded) sessions are already live.
  Result<std::shared_ptr<ServingSession>> OpenServerSession(
      uint32_t max_sessions);
  /// The live session with this token, its idle clock refreshed; nullptr
  /// when there is none (bad nonce, reaped or retired).
  std::shared_ptr<ServingSession> FindServerSession(uint64_t session_id,
                                                    uint64_t nonce);
  /// Retires the session with this token (Goodbye); false if none is live.
  bool RetireServerSession(uint64_t session_id, uint64_t nonce);
  /// Retires every session idle longer than `idle_timeout_ms`; returns
  /// how many.
  size_t ReapIdleServerSessions(uint64_t idle_timeout_ms);
  size_t num_server_sessions() const;
  /// Sizes every serving session's dedup window, present and future, to
  /// `capacity` (a SessionServer passes its ServerOptions::dedup_window).
  /// Shrinking evicts the oldest entries into the stale watermark.
  void SizeDedupWindows(size_t capacity);

  /// Exactly-once mutations of one serving session: each probes the
  /// session's dedup window; a fresh request executes (logged tagged, so
  /// crash replay re-records its outcome) and its encoded response is
  /// recorded. A retried registration answers the original handle instead
  /// of minting a duplicate query or stream.
  Result<Outcome> ApplyTagged(ServingSession& session, uint64_t request_id,
                              const Access& access,
                              const std::vector<Fact>& response);
  Result<Outcome> RegisterQueryTagged(ServingSession& session,
                                      uint64_t request_id,
                                      const UnionQuery& query);
  Result<Outcome> RegisterStreamTagged(ServingSession& session,
                                       uint64_t request_id,
                                       const UnionQuery& query,
                                       StreamOptions options);

  /// Writes a snapshot now and prunes durable state down to a one-deep
  /// fallback chain: the new image, the previous image, and the WAL
  /// segments holding records past the previous image. A corrupt newest
  /// snapshot therefore always degrades to the previous one plus a
  /// longer replay, never to data loss. FailedPrecondition without a log.
  Status WriteSnapshot();

  /// Highest WAL sequence assigned so far (0 without a log).
  uint64_t last_sequence() const {
    return wal_ != nullptr ? wal_->last_sequence() : 0;
  }

  // PersistHook (called by the engine's apply path):
  uint64_t LogApply(const Access& access,
                    const std::vector<Fact>& response) override;
  Status WaitDurable(uint64_t sequence) override;

  // ApplyListener (stats only; apply maintenance lives in the registry):
  void OnApply(const ApplyEvent& event) override { (void)event; }
  void ContributeStats(EngineStats* stats) const override;

 private:
  DurableSession(const Schema& schema, const AccessMethodSet& acs,
                 PersistEnv* env, std::string dir, PersistOptions options);

  /// {session_id, request_id} of a tagged mutation.
  using Tag = std::pair<uint64_t, uint64_t>;

  /// The store mutex when there is a log (WAL order = execution order);
  /// no lock without one.
  std::unique_lock<std::mutex> LockIfLogged();
  /// Appends one record (tagged when `tag` is set) and waits until it is
  /// durable; does nothing, not even `encode`, without a log.
  template <typename Encode>
  Status Log(WalRecordType type, const Tag* tag, Encode&& encode);
  /// Probes `session`'s window; on kFresh runs `execute` (which returns
  /// the encoded response) and records its response. Caller holds
  /// session.mu.
  template <typename Execute>
  Result<Outcome> Dedup(ServingSession& session, uint64_t request_id,
                        uint8_t type, Execute&& execute);

  // The mutations, shared by the public calls, the serving sessions' and
  // WAL replay (which runs before the log is open, so nothing re-logs).
  // Callers hold the store mutex when there is a log.
  Result<int> ApplyLocked(const Access& access,
                          const std::vector<Fact>& response, const Tag* tag);
  Result<QueryId> RegisterQueryLocked(const UnionQuery& query,
                                      const Tag* tag);
  Result<StreamId> RegisterStreamLocked(const UnionQuery& query,
                                        StreamOptions options, const Tag* tag);

  std::shared_ptr<ServingSession> NewServingSession(uint64_t id,
                                                    uint64_t nonce);
  /// Logs the retirement of sessions already dropped from the table.
  void LogRetirements(const std::vector<uint64_t>& ids);

  Status ReplayRecord(const WalRecord& rec);
  Status WriteSnapshotLocked();
  Status MaybeAutoSnapshotLocked();

  const Schema* schema_;
  const AccessMethodSet* acs_;
  PersistEnv* env_ = nullptr;
  const std::string dir_;
  const PersistOptions options_;

  std::unique_ptr<RelevanceEngine> owned_engine_;  ///< Open's; else unset
  std::unique_ptr<RelevanceStreamRegistry> owned_registry_;
  RelevanceEngine* engine_ = nullptr;
  RelevanceStreamRegistry* registry_ = nullptr;
  std::unique_ptr<WalWriter> wal_;  ///< nullptr: a store without a log

  /// The store mutex: serializes registrations always, and every mutation
  /// when there is a log.
  mutable std::mutex session_mu_;
  std::vector<UnionQuery> direct_queries_;  ///< registration order
  std::vector<QueryId> direct_qids_;
  /// {session_id, request_id} of the tagged apply in flight (stack slot of
  /// ApplyLocked, read by LogApply inside the engine's critical section on
  /// the same thread); nullptr for untagged applies.
  const Tag* pending_apply_tag_ = nullptr;
  RecoveryInfo recovery_;
  uint64_t records_since_snapshot_ = 0;
  uint64_t snapshots_written_ = 0;
  uint64_t snapshot_bytes_ = 0;

  /// The session table.
  mutable std::shared_mutex table_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<ServingSession>> sessions_;
  uint64_t next_session_id_ = 1;  ///< under table_mu_
  std::atomic<size_t> dedup_capacity_{256};
  const uint64_t nonce_seed_;
};

}  // namespace rar

#endif  // RAR_PERSIST_DURABLE_H_
