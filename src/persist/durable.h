// DurableSession: a crash-recoverable engine + stream registry.
//
// The session owns a RelevanceEngine and its RelevanceStreamRegistry and
// funnels every mutating operation — ApplyResponse, direct query
// registration, stream registration, subscriber acknowledgements — through
// one mutex and the WAL. Applies are logged *inside* the engine's apply
// critical section (PersistHook::LogApply, see engine.h) and made durable
// before any listener observes them; the other operations are serialized
// by the session mutex, so WAL sequence order equals execution order and
// sequential replay is deterministic.
//
// `Open` is also recovery: it loads the newest readable snapshot (if
// any), rebuilds the configuration in version-exact order, re-registers
// direct queries and streams, truncates the WAL's torn tail, replays the
// records past the snapshot, and only then attaches the hook and opens
// the log for appending. A session recovered from `dir` is
// VersionVector-identical to the crashed one and its streams resume from
// their persisted cursors (`PollAfter(acked)` is gap-free).
//
// Contract: after Open, drive all mutations through the session — calling
// `engine().ApplyResponse` directly would still be logged (the hook is
// attached) but would race the session's snapshot bookkeeping.
#ifndef RAR_PERSIST_DURABLE_H_
#define RAR_PERSIST_DURABLE_H_

#include <memory>
#include <mutex>
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
  /// Capacity of each serving session's request-dedup window (see
  /// persist/dedup.h); entries beyond it evict FIFO into the stale
  /// watermark. Only meaningful when a SessionServer fronts the session.
  size_t dedup_window = 256;
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
  /// Opens (or recovers) the session persisted under `dir`. `bootstrap`
  /// is the first-boot configuration; it must be passed identically on
  /// every Open — it is not logged, it is the replay origin until the
  /// first snapshot subsumes it. `schema` and `acs` must outlive the
  /// session and match what the directory was written with.
  static Result<std::unique_ptr<DurableSession>> Open(
      const Schema& schema, const AccessMethodSet& acs,
      const Configuration& bootstrap, const std::string& dir,
      PersistOptions options = {}, EngineOptions engine_options = {});

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

  /// Makes everything logged so far durable (graceful-shutdown flush).
  Status Flush();

  // ---- serving-session registry -----------------------------------------
  // A SessionServer over this durable session persists its token table,
  // per-session handle tables and request-dedup windows here, so that a
  // client whose response was lost can retry the same request id across a
  // server crash without double-applying (at-least-once delivery,
  // exactly-once effect).

  /// \brief What a tagged (deduped) mutation did.
  struct TaggedOutcome {
    enum class Kind {
      kFresh,  ///< executed now; response is the new outcome
      kHit,    ///< answered from the dedup window; engine untouched
      kStale,  ///< evicted from the window long ago; must be rejected
    };
    Kind kind = Kind::kFresh;
    uint8_t type = 0;      ///< wire type byte of the original request
    std::string response;  ///< encoded response payload (kFresh / kHit)
    int facts_added = 0;   ///< kFresh applies
    uint32_t handle = 0;   ///< kFresh registrations: the session handle
    QueryId query_id = 0;  ///< kFresh query registrations
    StreamId stream_id = 0;  ///< kFresh stream registrations
  };

  /// \brief One recovered serving session (for re-seeding a server's
  /// token and handle tables after Open).
  struct RecoveredServerSession {
    uint64_t id = 0;
    uint64_t nonce = 0;
    std::vector<uint32_t> query_regs;  ///< handle -> direct-reg. index
    std::vector<StreamId> streams;     ///< handle -> StreamId
  };

  /// Logs + persists a serving session's identity (WAL kSessionOpen).
  Status OpenServerSession(uint64_t session_id, uint64_t nonce);
  /// Logs the retirement (Goodbye or idle reap); drops its dedup state.
  Status RetireServerSession(uint64_t session_id);
  /// Live serving sessions, for post-recovery seeding.
  std::vector<RecoveredServerSession> server_sessions() const;
  /// The session's next free request id (DedupWindow::next_free_id); 1
  /// for an unknown session.
  uint64_t NextRequestId(uint64_t session_id) const;

  /// Exactly-once apply: probes the session's dedup window first; fresh
  /// requests run through the engine + WAL (tagged, so crash replay
  /// re-records the outcome) and cache their encoded ApplyResult payload.
  Result<TaggedOutcome> ApplyTagged(uint64_t session_id, uint64_t request_id,
                                    const Access& access,
                                    const std::vector<Fact>& response);
  /// Deduped registrations: a retried registration answers the original
  /// handle instead of minting a duplicate query/stream.
  Result<TaggedOutcome> RegisterQueryTagged(uint64_t session_id,
                                            uint64_t request_id,
                                            const UnionQuery& query);
  Result<TaggedOutcome> RegisterStreamTagged(uint64_t session_id,
                                             uint64_t request_id,
                                             const UnionQuery& query,
                                             StreamOptions options);

  /// Writes a snapshot now and prunes durable state down to a one-deep
  /// fallback chain: the new image, the previous image, and the WAL
  /// segments holding records past the previous image. A corrupt newest
  /// snapshot therefore always degrades to the previous one plus a
  /// longer replay, never to data loss.
  Status WriteSnapshot();

  /// Highest WAL sequence assigned so far.
  uint64_t last_sequence() const { return wal_->last_sequence(); }

  // PersistHook (called by the engine's apply path):
  uint64_t LogApply(const Access& access,
                    const std::vector<Fact>& response) override;
  Status WaitDurable(uint64_t sequence) override;

  // ApplyListener (stats only; apply maintenance lives in the registry):
  void OnApply(const ApplyEvent& event) override { (void)event; }
  void ContributeStats(EngineStats* stats) const override;

 private:
  DurableSession(const Schema& schema, const AccessMethodSet& acs,
                 PersistEnv* env, std::string dir, PersistOptions options)
      : schema_(&schema), acs_(&acs), env_(env), dir_(std::move(dir)),
        options_(options) {}

  /// \brief A serving session's durable state (under session_mu_).
  struct DurableServerSession {
    uint64_t nonce = 0;
    std::vector<uint32_t> query_regs;  ///< handle -> direct-reg. index
    std::vector<StreamId> streams;     ///< handle -> StreamId
    DedupWindow dedup;
  };

  Status ReplayRecord(const WalRecord& rec);
  Status WriteSnapshotLocked();
  Status MaybeAutoSnapshotLocked();

  const Schema* schema_;
  const AccessMethodSet* acs_;
  PersistEnv* env_;
  const std::string dir_;
  const PersistOptions options_;

  std::unique_ptr<RelevanceEngine> engine_;
  std::unique_ptr<RelevanceStreamRegistry> registry_;
  std::unique_ptr<WalWriter> wal_;

  /// Serializes every mutating operation (WAL order = execution order).
  mutable std::mutex session_mu_;
  std::vector<UnionQuery> direct_queries_;  ///< registration order
  std::vector<QueryId> direct_qids_;
  std::unordered_map<uint64_t, DurableServerSession> server_sessions_;
  /// {session_id, request_id} of the tagged apply in flight (stack slot of
  /// ApplyTagged, read by LogApply inside the engine's critical section on
  /// the same thread); nullptr for untagged applies.
  const std::pair<uint64_t, uint64_t>* pending_apply_tag_ = nullptr;
  RecoveryInfo recovery_;
  uint64_t records_since_snapshot_ = 0;
  uint64_t snapshots_written_ = 0;
  uint64_t snapshot_bytes_ = 0;
};

}  // namespace rar

#endif  // RAR_PERSIST_DURABLE_H_
