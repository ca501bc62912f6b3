// RelevanceEngine: a long-lived, cached, concurrent relevance runtime.
//
// The deciders in `relevance/` are one-shot: each call re-derives
// certainty, re-enumerates candidates, and re-runs fixpoints from scratch.
// The engine is the production shape the paper's runtime story implies — a
// resident service that owns a schema, an access-method set, and an
// *evolving* configuration, and answers streams of relevance queries
// online:
//
//  * per-relation versioned state — the configuration carries one monotone
//    version per relation plus an active-domain version (see
//    relational/version.h); every piece of derived state records the
//    version sub-vector of the *relation footprint* it actually read
//    (query relations + accessed relation, see query/footprint.h), so
//    growth of an unrelated relation invalidates nothing;
//  * decision cache — IR/LTR verdicts are memoized per (query, kind,
//    method, binding) with footprint-stamped validity and an LRU size cap
//    (see decision_cache.h); verdicts always agree with the uncached
//    deciders;
//  * sharded locking — state sits under per-relation striped reader/writer
//    locks: `ApplyResponse` for relation R excludes only work whose
//    footprint touches R, so applies overlap ("pipeline parallelism") with
//    checks over disjoint footprints (IR *and* LTR: the deciders read
//    zero-copy overlay views, so nothing needs the whole configuration)
//    and with each other;
//  * caller-thread checks — every check runs on the thread that asks
//    for it (the engine owns no threads), so concurrency is the callers'
//    own: checks and applies from many threads overlap under the locks;
//  * scans — `FirstRelevant` finds the first relevant access of a list
//    under one acquisition of the check locks, deriving the query's
//    certainty and seeded view once per scan (the stream registry's
//    per-binding recheck); a check allocates nothing on the heap: the
//    lock footprint is a stripe mask fixed at registration, cache stamps
//    are read in place from the version mirror, and the decision cache
//    recycles its records;
//  * per-query memos — certainty, re-evaluated only when the query's
//    relations move, and achievability (can some reachable configuration
//    satisfy the query?), sticky once true: for an access with outputs
//    under dependent methods it leaves the LTR verdict to the truncation
//    cut alone, so most such checks run no containment search (DESIGN.md
//    "The achievability memo");
//  * scheduling — `CandidateAccesses` ranks the frontier by cached
//    relevance and query criticality, so callers probe the most promising
//    accesses first;
//  * metrics — `stats()` exposes checks, cache hit rates, fixpoint reuse,
//    per-relation invalidation attribution and apply/check overlap.
#ifndef RAR_ENGINE_ENGINE_H_
#define RAR_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "access/access_method.h"
#include "access/reachability.h"
#include "engine/decision_cache.h"
#include "engine/frontier.h"
#include "engine/stats.h"
#include "obs/obs.h"
#include "query/footprint.h"
#include "query/query.h"
#include "relational/configuration.h"
#include "relational/version.h"
#include "relevance/relevance.h"
#include "util/status.h"

namespace rar {

class OverlayConfiguration;

/// \brief Construction-time knobs for a RelevanceEngine.
struct EngineOptions {
  /// Ignored: every check runs on its caller's thread. Kept so that the
  /// benchmark harness, which sets it, still compiles.
  int num_threads = 0;
  /// Disable to force every check through the deciders (used by the
  /// validation tests and the bench baseline).
  bool enable_cache = true;
  /// Decision-cache entry cap; the LRU tail is evicted beyond it.
  size_t cache_capacity = DecisionCache::kDefaultCapacity;
  /// When false, verdicts are stamped with the derived global epoch
  /// instead of their footprint sub-vector — the pre-sharding behaviour,
  /// kept as a baseline for benchmarks and validation.
  bool footprint_invalidation = true;
  /// Admission bound on concurrently outstanding ApplyResponse calls
  /// (entry through listener completion); excess applies are rejected
  /// with ResourceExhausted instead of queueing on the stripe locks.
  /// 0 = unbounded. The serving layer maps the rejection to a typed
  /// retry-after error.
  size_t max_inflight_applies = 0;
  /// Options forwarded to the underlying relevance deciders.
  RelevanceOptions relevance;
  /// Observability bundle options (trace capacity / sampling).
  ObsOptions obs;
};

/// \brief One absorbed response, as reported to apply listeners.
///
/// Beyond the access and the coarse growth flags, the event carries the
/// *landed delta*: exactly the facts the response added and the values it
/// introduced to the active domain, collected during the apply itself (no
/// extra pass over the configuration; empty when no listener is attached).
/// Listeners use the delta to narrow derived-state maintenance to what a
/// response can actually touch — the stream registry's value-gated hit
/// waves intersect `new_facts` against a per-binding constant index.
struct ApplyEvent {
  Access access;
  /// The accessed relation (the only relation whose facts can have grown).
  RelationId relation = kInvalidId;
  /// New facts absorbed (0 when the response was redundant — the frontier
  /// still changed: the access is now marked performed).
  int facts_added = 0;
  /// True when the response introduced values new to the active domain.
  bool adom_grew = false;
  /// The facts actually absorbed (response facts already present are not
  /// repeated here); `new_facts.size() == facts_added` when collected.
  std::vector<Fact> new_facts;
  /// The (value, domain) entries new to the active domain (empty when
  /// `!adom_grew`).
  std::vector<TypedValue> new_adom;
  /// The domains that gained at least one active-domain entry (sorted,
  /// unique; empty when `!adom_grew`). Filled whether or not the delta was
  /// collected — listeners use it to skip streams whose adom-dependence
  /// domains are disjoint from the growth.
  std::vector<DomainId> grown_domains;
  /// Per-domain active-domain versions right after this apply landed,
  /// indexed densely by DomainId (empty when `!adom_grew` — nothing
  /// moved). With the per-domain entry counts of `new_adom` this brackets
  /// the growth per domain, the per-domain analogue of
  /// `relation_version_after` / `facts_added`.
  std::vector<uint64_t> adom_versions_after;
  /// The touched relation's version right after this apply landed. With
  /// `facts_added` this brackets the delta: the pre-apply version is
  /// `relation_version_after - facts_added`, which is how listeners tell
  /// "stale by exactly this event" from "stale by more".
  uint64_t relation_version_after = 0;
  /// The active-domain version right after this apply landed.
  uint64_t adom_version_after = 0;
  /// WAL sequence the attached PersistHook assigned (0 when no hook).
  uint64_t wal_sequence = 0;
};

/// \brief Hook for subsystems that maintain state derived from the
/// engine's configuration (the stream registry, src/stream/). `OnApply`
/// runs on the applying thread *after* every engine lock is released, so
/// listeners are free to call back into the engine (checks, certainty,
/// query registration); it must be internally synchronised against
/// concurrent applies. Detach (RemoveApplyListener) before destroying a
/// listener, and only while no apply is in flight.
class ApplyListener {
 public:
  virtual ~ApplyListener() = default;

  /// Called once per successful ApplyResponse.
  virtual void OnApply(const ApplyEvent& event) = 0;

  /// Merges the listener's counters into an engine stats snapshot (the
  /// stream fields of EngineStats stay zero without a registry attached).
  virtual void ContributeStats(EngineStats* stats) const { (void)stats; }
};

/// \brief Write-ahead-log hook (src/persist/). Unlike ApplyListener, the
/// logging half runs *inside* the apply's critical section: `LogApply` is
/// called at the end of ApplyLocked while the relation stripe (and the
/// Adom lock) are still held, so the sequence it assigns is consistent
/// with every serialization the engine's locks admit — same-relation
/// applies serialize on the stripe, Adom-growing applies on the Adom
/// lock, and anything else commutes. It must be fast and must not call
/// back into the engine. `WaitDurable` runs after every lock is released
/// and *before* listeners are notified, so no subscriber ever observes an
/// apply that could vanish in a crash.
class PersistHook {
 public:
  virtual ~PersistHook() = default;

  /// Records the apply (including redundant ones — they still mark the
  /// access performed) and returns its WAL sequence number.
  virtual uint64_t LogApply(const Access& access,
                            const std::vector<Fact>& response) = 0;

  /// Blocks until the record is durable under the configured policy.
  virtual Status WaitDurable(uint64_t sequence) = 0;
};

/// \brief Outcome of one engine check.
struct CheckOutcome {
  bool relevant = false;
  bool from_cache = false;
  /// Non-OK when the LTR decider is outside its paper-backed scope (the
  /// caller decides whether to treat that as relevant; see MediatorOptions
  /// ::conservative_on_unknown).
  Status status;

  bool ok() const { return status.ok(); }
};

/// \brief A non-owning reference to a `bool(AccessMethodId)` callable (two
/// words: no heap, no copy of the callable, which must outlive the call).
class MethodFilter {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, MethodFilter>>>
  MethodFilter(const F& f)  // NOLINT: implicit, like std::function
      : callable_(&f), call_([](const void* c, AccessMethodId m) {
          return static_cast<bool>((*static_cast<const F*>(c))(m));
        }) {}

  bool operator()(AccessMethodId m) const { return call_(callable_, m); }

 private:
  const void* callable_;
  bool (*call_)(const void*, AccessMethodId);
};

/// \brief Long-lived relevance-checking runtime over an evolving
/// configuration.
///
/// Thread model (lock order: state_mu_ > adom_mu_ > stripes ascending >
/// frontier_mu_ > leaf mutexes):
///  * Checks take `state_mu_` shared, `adom_mu_` shared, and the stripe
///    locks of their footprint shared (a 64-bit stripe mask: the query's
///    mask, fixed at RegisterQuery, or'd with each accessed method's
///    stripe), once per call: one access (CheckImmediate / CheckLongTerm)
///    or a scan (FirstRelevant). LTR checks included: the deciders read
///    through ConfigView overlays (relational/overlay.h) instead of
///    copying the configuration, so they pin only the relations they read
///    (plus, under dependent methods, relations with methods — the
///    witness chase probes Contains() on those). Every path decides each
///    access through one check core (CheckLocked).
///  * `ApplyResponse` for relation R takes `state_mu_` shared, `adom_mu_`
///    shared — exclusive only when the response introduces values new to
///    the active domain — and stripe(R) exclusive. Applies to different
///    relations run concurrently with each other and with checks whose
///    footprint avoids R. While a growing apply waits for `adom_mu_`, new
///    checks wait for it (LockAdomForGrowth), so overlapping checks
///    cannot keep it out.
///  * `RegisterQuery` / `SnapshotConfig` take `state_mu_` exclusive.
class RelevanceEngine {
 public:
  RelevanceEngine(const Schema& schema, const AccessMethodSet& acs,
                  Configuration initial, EngineOptions options = {});
  ~RelevanceEngine() = default;

  RelevanceEngine(const RelevanceEngine&) = delete;
  RelevanceEngine& operator=(const RelevanceEngine&) = delete;

  /// Registers a Boolean query and returns its dense id. The query is
  /// validated against the engine's schema. Constants the query mentions
  /// are recorded as *seeds*: checks evaluate over a zero-copy overlay
  /// that carries any seed still missing from the active domain, so
  /// Prop 2.2 binding queries over fresh head constants get the same
  /// seeded-view semantics as the one-shot k-ary wrappers.
  Result<QueryId> RegisterQuery(const UnionQuery& query);

  size_t num_queries() const { return num_queries_.load(); }

  /// The registered query. Takes the state lock briefly: a concurrent
  /// RegisterQuery may reallocate the id vector (the QueryState itself is
  /// heap-stable, so the returned reference outlives the lock).
  const UnionQuery& query(QueryId id) const {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    return queries_[id]->query;
  }

  /// The derived global epoch: advances exactly when the configuration
  /// grows. Kept for callers that want a single coarse version number;
  /// cached state is keyed on the per-relation versions instead.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// The configuration's per-relation version (fact count) as mirrored by
  /// the engine; safe to read concurrently with applies.
  uint64_t relation_version(RelationId rel) const {
    return rel < num_relations_
               ? rel_versions_[rel].load(std::memory_order_acquire)
               : 0;
  }

  /// The active-domain version; safe to read concurrently with applies.
  uint64_t adom_version() const {
    return adom_version_.load(std::memory_order_acquire);
  }

  /// One domain's active-domain version (its first-seen entry count); safe
  /// to read concurrently with applies. The per-domain counters sum to
  /// `adom_version()` — derived state keyed on a subset of domains stamps
  /// these instead of the global counter, so growth elsewhere does not
  /// invalidate it.
  uint64_t adom_domain_version(DomainId domain) const {
    return domain < num_domains_
               ? adom_domain_versions_[domain].load(std::memory_order_acquire)
               : 0;
  }

  /// Snapshot of the full version vector (mirror of
  /// `Configuration::Versions`, readable without any lock).
  VersionVector versions() const;

  /// Copy of the configuration taken under the state lock.
  Configuration SnapshotConfig() const;

  /// OK iff `access` is well-formed at the current configuration
  /// (`CheckWellFormed` under the state lock).
  Status ValidateAccess(const Access& access) const;

  /// Applies a response to a well-formed access: absorbs the facts, marks
  /// the access performed, advances the touched relation's version (and
  /// the Adom version when values are new), and extends the frontier.
  /// Returns the number of new facts. Concurrency-safe; see the class
  /// comment for what it overlaps with.
  Result<int> ApplyResponse(const Access& access,
                            const std::vector<Fact>& response);

  /// True when the query is certain at the current configuration. Computed
  /// at most once per footprint stamp per query (monotone: once true,
  /// cached forever).
  bool IsCertain(QueryId id);

  /// Immediate relevance of `access` for the registered query.
  CheckOutcome CheckImmediate(QueryId id, const Access& access);

  /// Long-term relevance of `access` for the registered query.
  CheckOutcome CheckLongTerm(QueryId id, const Access& access);

  /// Outcome of FirstRelevant.
  struct ScanOutcome {
    /// Index (into the scanned accesses) of the first relevant access; -1
    /// when none is.
    int index = -1;
    /// The query's certainty as the scan's checks read it; unset when no
    /// check reached the certainty test (no access passed the filter, or
    /// none was well-formed).
    std::optional<bool> certain;
  };

  /// Scans `accesses[0, count)` in order for the first access whose
  /// method `applicable` admits and that is relevant for `kind` (an
  /// out-of-scope LTR verdict counts as `conservative_on_unknown`; an
  /// access with an unknown method is never admitted). Verdicts and
  /// per-check counters are exactly those of calling CheckImmediate /
  /// CheckLongTerm on each admitted access in turn until one is relevant;
  /// but the scan takes the check locks once and derives the query's
  /// certainty and seeded view once, so `overlapped_checks` and
  /// `certainty_reuse` count per scan. It pins the query's relations, the
  /// relation of each admitted method (never the others — a pending
  /// frontier spans every relation), and, for LTR under dependent
  /// methods, every method relation. `applicable` runs once per method,
  /// before any lock is taken, so the set-up does not grow with `count`.
  /// The set-up allocates nothing (an admitted-method mask and a stripe
  /// mask; methods beyond 64 are admitted per access), nor does a cache
  /// hit or, once buffers have grown, a stale probe's IR recompute: the
  /// insert reuses the released cache record and the IR search a
  /// per-thread scratch. The stream registry rechecks each binding
  /// through this call.
  ScanOutcome FirstRelevant(QueryId id, CheckKind kind,
                            const Access* accesses, size_t count,
                            MethodFilter applicable,
                            bool conservative_on_unknown);

  /// Pending candidate accesses ranked for the query: cached-relevant
  /// first, then unknown (criticality-boosted when the accessed relation
  /// occurs in the query), cached-irrelevant last. The frontier is kept in
  /// sync by ApplyResponse; this is a pure read.
  std::vector<Access> CandidateAccesses(QueryId id);

  /// Frontier candidates in plain discovery order (the crawl baseline).
  std::vector<Access> PendingAccesses();

  /// True when (method, binding) was already applied through the engine.
  bool WasPerformed(const Access& access) const;

  /// Every access ever marked performed, in unspecified order. Snapshot
  /// input for the persistence layer.
  std::vector<Access> PerformedAccesses() const;

  /// Re-marks accesses as performed (recovery: the snapshot's performed
  /// set is not derivable from the configuration — a redundant response
  /// leaves no fact behind). Idempotent.
  void RestorePerformed(const std::vector<Access>& accesses);

  /// The ProducibleDomains fixpoint at the current configuration, computed
  /// at most once per Adom version (the fixpoint reads only the typed
  /// active domain and the method set). A hook for external schedulers and
  /// diagnostics; the relevance deciders derive their own reachability
  /// internally and do not consult this memo.
  std::unordered_set<DomainId> producible_domains();

  /// Counter snapshot (safe to call while checks and applies run).
  /// Attached apply listeners contribute their counters (the stream
  /// fields).
  EngineStats stats() const;

  /// Attaches a listener notified after every successful ApplyResponse.
  void AddApplyListener(ApplyListener* listener);

  /// Detaches a listener. Call only while no apply is in flight (the
  /// notification path reads the listener list without the state lock).
  void RemoveApplyListener(ApplyListener* listener);

  /// Attaches (or with nullptr detaches) the WAL hook. Call only while no
  /// apply is in flight — recovery installs it after replay completes.
  void SetPersistHook(PersistHook* hook) { persist_hook_ = hook; }

  /// The engine's schema / access-method set (shared with attached
  /// subsystems such as the stream registry).
  const Schema& schema() const { return schema_; }
  const AccessMethodSet& access_methods() const { return acs_; }

  /// Active-domain values of `domain` from index `from` on, copied under
  /// the engine's read locks (active-domain order is append-only, so a
  /// caller holding a previous size sees exactly the new values).
  std::vector<Value> AdomValuesOf(DomainId domain, size_t from = 0) const;

  /// All current facts of one relation, copied under the engine's read
  /// locks (state shared + the relation's stripe shared). Fact order is
  /// append-only insertion order. Seeds the stream registry's secondary
  /// fact index, which is then maintained delta-wise from ApplyEvent
  /// deltas instead of re-copying.
  std::vector<Fact> RelationFactsSnapshot(RelationId rel) const;

  /// The engine's observability bundle (latency histograms + trace ring).
  /// Attached subsystems (stream registry, mediator) record into it too,
  /// so one snapshot covers the whole runtime.
  EngineObservability& obs() const { return obs_; }

 private:
  struct QueryState {
    UnionQuery query;
    /// Query relations (no accessed relation, not adom-sensitive); a
    /// check's footprint merges in the accessed relation (LiveStamp).
    RelationFootprint footprint;
    /// Lock footprints as stripe masks, before accessed relations join:
    /// the query's relations (IR, certainty), plus for LTR under
    /// dependent methods every method relation (the witness chase probes
    /// Contains() on them).
    uint64_t ir_stripes = 0;
    uint64_t ltr_stripes = 0;
    /// Constants the query mentions (typed by occurrence); any of them
    /// missing from the active domain is seeded onto the check-time view.
    std::vector<TypedValue> seeds;
    bool certain = false;           ///< monotone once true
    VersionStamp checked_stamp;     ///< stamp of the last certainty check
    bool checked_valid = false;     ///< checked_stamp holds a real check
    /// The achievability memo (AchievableLocked): set once the query is
    /// found achievable from a check's seeded view, and never cleared —
    /// configurations only grow, so it stays achievable. Read without a
    /// lock.
    std::atomic<bool> achievable{false};
    /// Stamp of the last search that found the query unachievable (its
    /// relations, then the Adom version); the search re-runs once it
    /// moves.
    VersionStamp unachievable_stamp;
    bool unachievable_valid = false;  ///< unachievable_stamp is real
  };

  /// RAII gauge for the overlap counters.
  class ActivityScope;

  /// Shared locks on the stripes of a mask, taken in ascending stripe
  /// order and released on destruction.
  class SharedStripes;

  /// The check locks, in lock order: the activity gauge, state_mu_ and
  /// adom_mu_ shared, then (PinStripes) the stripes of a lock mask.
  class CheckLocks;

  /// What a run of checks for one (query, kind) derives once per
  /// acquisition of the check locks: the query's certainty and its seeded
  /// view. Both stay fixed while the locks are held — the stripes pin the
  /// footprint relations and adom_mu_ pins the active domain.
  class CheckScope;

  /// The validity stamp of a check (or of a certainty memo), read in
  /// place from the version mirror rather than built: the query's
  /// relations with the accessed relation merged in at its sorted
  /// position, then (LTR) the Adom version — or, without footprint
  /// invalidation, the global epoch alone. Under the footprint's stripes
  /// (and adom_mu_) the components are stable.
  class LiveStamp;

  /// Stripe index of one relation, and its bit in a stripe mask.
  size_t StripeOf(RelationId rel) const { return rel % stripe_count_; }
  uint64_t StripeBit(RelationId rel) const {
    return uint64_t{1} << StripeOf(rel);
  }

  /// Stripe bit of the relation `access` reads (0 for an unknown method).
  uint64_t AccessedStripe(const Access& access) const {
    return access.method < method_stripes_.size()
               ? method_stripes_[access.method]
               : 0;
  }

  /// The lock mask of a check before its accessed relations join: never
  /// all relations — the deciders read through overlay views and copy
  /// nothing. Caller holds state_mu_.
  uint64_t QueryStripes(QueryId id, CheckKind kind) const {
    const QueryState& qs = *queries_[id];
    return kind == CheckKind::kImmediate ? qs.ir_stripes : qs.ltr_stripes;
  }

  /// CheckImmediate / CheckLongTerm: one access under its own locks.
  CheckOutcome CheckOne(QueryId id, CheckKind kind, const Access& access);

  /// Absorbs a validated response under the relation's stripe lock; the
  /// caller holds state_mu_ shared and adom_mu_ (exclusive when the
  /// response grows the active domain, shared otherwise). Fills `event`'s
  /// growth flags and version brackets; with `collect_delta` it also
  /// records the landed facts and new active-domain entries (skipped when
  /// no listener is attached — nobody would read them).
  Result<int> ApplyLocked(const Access& access,
                          const std::vector<Fact>& response, ApplyEvent* event,
                          bool collect_delta);

  /// Takes adom_mu_ exclusive for an apply that grows the active domain.
  /// New CheckLocks scopes wait while such an apply waits. glibc's rwlock
  /// prefers readers, so back-to-back checks from several threads would
  /// otherwise hold the apply off without bound.
  std::unique_lock<std::shared_mutex> LockAdomForGrowth();

  /// Invokes every attached listener (engine locks must not be held).
  void NotifyApplied(const ApplyEvent& event);

  /// The view a check of `qs` evaluates over: `conf_` itself, or — when
  /// the query carries seed constants missing from the active domain —
  /// `*overlay` rebased onto conf_ with the seeds registered. Caller
  /// holds adom_mu_ (shared) and the check's stripes.
  const ConfigView& SeededViewLocked(const QueryState& qs,
                                     OverlayConfiguration* overlay) const;

  /// The one check core: decides one access under already-held check
  /// locks (cache probe, decider, insert), reading and filling `scope`'s
  /// per-acquisition state. Every check path runs through it.
  CheckOutcome CheckLocked(CheckScope* scope, const Access& access);

  /// Certainty with per-stamp memoization; takes memo_mu_. Caller
  /// holds the query-footprint stripes (at least shared).
  bool CertainLocked(QueryId id);

  /// Whether the query is achievable from `view`, its seeded view at the
  /// held locks: the sticky memo when set (counted as achievable_reuse),
  /// false while the negative stamp holds, otherwise one achievability
  /// search (no engine mutex held; memo_mu_ only guards the stamp), whose
  /// answer is memoized. Caller holds the query's LTR check locks, which
  /// cover every relation the search reads.
  bool AchievableLocked(QueryId id, const ConfigView& view);

  /// Ranking score for the frontier scheduler (cache probes only).
  double ScoreAccess(QueryId id, const Access& access) const;

  const Schema& schema_;
  const AccessMethodSet& acs_;
  const EngineOptions options_;
  RelevanceAnalyzer analyzer_;
  const size_t num_relations_;
  const size_t num_domains_;
  /// One stripe per relation, capped at 64 (StripeBit folds beyond it),
  /// so a lock footprint fits one 64-bit mask.
  const size_t stripe_count_;
  /// Stripe bit of each access method's relation, indexed by method id
  /// (the method set is fixed once the engine is built).
  std::vector<uint64_t> method_stripes_;
  /// Stripes of every method relation (LTR under dependent methods).
  uint64_t method_relation_stripes_ = 0;

  /// Structure lock: exclusive for whole-configuration operations
  /// (RegisterQuery, SnapshotConfig, construction); shared by checks *and*
  /// applies, which coordinate through adom_mu_ and the stripes below.
  mutable std::shared_mutex state_mu_;
  /// Active-domain lock: shared while reading Adom (every check; applies
  /// whose facts carry only known values), exclusive when growing it.
  mutable std::shared_mutex adom_mu_;
  /// Growing applies waiting for adom_mu_ exclusive, changed only under
  /// adom_gate_mu_ (adom_gate_cv_ wakes the checks that wait) and read
  /// without it on the check path's fast test.
  std::atomic<int> adom_growers_waiting_{0};
  mutable std::mutex adom_gate_mu_;
  mutable std::condition_variable adom_gate_cv_;
  /// Per-relation stripes guarding conf_'s relation stores.
  mutable std::vector<std::shared_mutex> stripe_mu_;
  /// Guards the frontier (candidates, performed set, adom_seen cursor).
  mutable std::mutex frontier_mu_;
  /// Guards the certainty memo and the negative achievability stamp of
  /// QueryState (held for memo reads and writes only, never for a
  /// containment search).
  std::mutex memo_mu_;
  /// Guards the producible_domains memo.
  std::mutex producible_mu_;
  /// Guards the apply-listener list (taken only to copy it).
  mutable std::mutex listeners_mu_;

  Configuration conf_;
  AccessFrontier frontier_;

  /// Lock-free version mirror of conf_ (written under the respective
  /// exclusive locks, readable anywhere — e.g. frontier scoring).
  std::unique_ptr<std::atomic<uint64_t>[]> rel_versions_;
  std::atomic<uint64_t> adom_version_{0};
  /// Per-domain slices of adom_version_, indexed by DomainId (written under
  /// adom_mu_ exclusive — only growth moves them).
  std::unique_ptr<std::atomic<uint64_t>[]> adom_domain_versions_;
  std::atomic<uint64_t> epoch_{0};

  bool producible_valid_ = false;
  uint64_t producible_adom_version_ = 0;
  std::unordered_set<DomainId> producible_;

  std::vector<std::unique_ptr<QueryState>> queries_;
  std::atomic<size_t> num_queries_{0};
  std::vector<ApplyListener*> listeners_;
  /// Lock-free mirror of listeners_.size(): the apply path skips delta
  /// collection when nobody listens.
  std::atomic<size_t> num_listeners_{0};
  /// WAL hook, set while quiescent (see SetPersistHook); read per apply.
  PersistHook* persist_hook_ = nullptr;

  mutable DecisionCache cache_;
  mutable EngineObservability obs_;
  mutable EngineCounters counters_;
  /// Stale-drop attribution, indexed by RelationId; slot num_relations_
  /// counts Adom-version invalidations.
  std::unique_ptr<std::atomic<uint64_t>[]> invalidations_by_relation_;
  /// Overlap gauges.
  mutable std::atomic<int> active_checks_{0};
  mutable std::atomic<int> active_applies_{0};
  /// Admission gauge: ApplyResponse calls between entry and listener
  /// completion (wider than active_applies_, which tracks only the locked
  /// section).
  std::atomic<int> inflight_applies_{0};
};

}  // namespace rar

#endif  // RAR_ENGINE_ENGINE_H_
