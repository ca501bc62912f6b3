// RelevanceStreamRegistry: incremental maintenance of standing k-ary
// relevance streams over a RelevanceEngine.
//
// The registry attaches to an engine as an ApplyListener. On every
// absorbed response it narrows the work with two filters before touching
// any decider:
//
//  1. *stream-level*: when the applied relation lies outside a stream's
//     query footprint (plus the dependent-LTR widening) and the response
//     grew no active-domain value, every binding of that stream is skipped
//     in O(1) — the apply cannot have changed any binding verdict or the
//     relevant frontier.
//  2. *binding-level*: otherwise each binding rebuilds its registry stamp
//     (engine footprint versions + per-relation performed-access counters
//     + the Adom version) and is re-evaluated only on mismatch; settled
//     bindings (certain — monotone — or unsatisfiable) are never looked at
//     again.
//  3. *value gate*: a stamp-stale binding of a footprint-hit wave is
//     restamped *without* re-evaluation when the landed facts are provably
//     invisible to its binding query. Soundness (see DESIGN.md,
//     "Value-gated hit waves"): with the active domain unchanged, a landed
//     fact that unifies with no substituted atom of Q_b can join no
//     homomorphism of Q_b over any extension of the configuration, so it
//     flips neither certainty nor any pending access's IR/LTR verdict; the
//     frontier meanwhile only lost the performed access, which matters
//     only to the binding it witnessed. The gate therefore rechecks
//     exactly: bindings a landed fact reaches through the inverted
//     {head slot, value} -> binding index (via the per-atom constraints
//     HeadInstantiator::gate_constraints derives once per stream), the
//     bindings a free-pattern hit can affect (below), and the binding
//     whose witness was just performed. Everything else keeps its verdicts
//     and merely advances the hit relation's stamp components — and only
//     by exactly this event's delta, so staleness from concurrent applies
//     survives for their own waves. Conservative full-wave fallbacks:
//     dependent-method LTR streams (production chains escape atom
//     unification), >= 64 disjuncts, and streams registered with
//     StreamOptions::force_full_recheck (the gate-free reference twin the
//     parity tests compare against).
//  4. *semijoin narrowing* (IR-only gated streams): a fact landing on a
//     constraint-free atom unifies with it under *every* binding, but for
//     a relevant binding the only verdict a landed fact can move is
//     certainty flipping on — IR relevance of its pending witness is
//     monotone under configuration growth — and certainty needs a
//     homomorphism over the *current* configuration that uses the fact.
//     The chase (SemijoinPlan) follows the hit atom's non-head join
//     variables through the disjunct's other atoms via a secondary
//     {relation, position, value} -> facts index, collecting candidate
//     values for every join-connected head slot; relevant bindings whose
//     slot values miss the candidate sets are restamped. Irrelevant-
//     uncertain bindings stay in the recheck set (hypothetical response
//     facts can complete their IR chains — the
//     `value_gate_fallback_unconstrained` residual).
//  5. *delta-gated Adom growth* (IR-only gated streams): an Adom-growing
//     apply used to force a full wave. Per-domain Adom versions make
//     foreign-domain growth an O(1) stream skip, and growth of a tracked
//     domain rechecks only {fact-touched (filters 3-4), newborn bindings
//     the delta enumeration minted, the performed witness, and the
//     irrelevant-uncertain residual (`value_gate_fallback_adom`) — a
//     freshly minted access may be relevant to those}; relevant untouched
//     bindings keep their monotone witnesses and are restamped across the
//     event's per-domain version brackets.
//
// Re-evaluation piggybacks on the engine: each stale binding is decided
// one way, by EvalBinding's `FirstRelevant` scans (witness IR, witness
// LTR, pending IR, pending LTR; one acquisition of the engine's striped
// locks each), which go through the engine's decision cache (binding
// queries are ordinary engine queries), all on the applying thread.
// Active-domain growth delta-enumerates exactly the new head
// bindings via HeadInstantiator::ForEachNewBinding.
//
// Sharing: a relevance verdict depends only on the query and the
// configuration, never on who asks, so registrations with an equal
// (query, options) key — the query compared per disjunct on head, atoms
// and variable domains with variable names ignored, and every
// StreamOptions field a verdict or a delivery depends on — share one
// stream: its waves run once, whatever the number of subscribers. A
// StreamId names a *subscription*: a cursor with its own event numbering
// 1, 2, 3, ... over the shared log. The first
// registration of a key builds the stream; a later one joins it with a
// private prefix holding the events a private registration at that moment
// would emit (kBindingAdded per binding, then each binding's current
// verdict), numbered from 1, after which shared event s reaches it as
// s plus a fixed offset. The shared log keeps events from the lowest
// acknowledged position among the stream's subscriptions; `retain_cap`
// bounds it, and only subscriptions behind the resulting horizon see
// their cursor evicted. Snapshot and RelevantBindings act on the shared
// stream.
//
// Threading: OnApply runs on the applying thread after the engine released
// its locks; waves serialize per stream (StreamState::mu) while distinct
// streams and engine-side applies proceed concurrently. Poll/Snapshot are
// cheap reads under the same per-stream mutex. Destroy the registry only
// after in-flight applies quiesce (it detaches itself from the engine).
#ifndef RAR_STREAM_REGISTRY_H_
#define RAR_STREAM_REGISTRY_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "stream/binding_state.h"
#include "stream/stream.h"

namespace rar {

/// \brief Everything recovery needs to rebuild one subscription
/// identically (src/persist/). Two modes:
///
///  * `quiet` (snapshot restore): the subscriber already consumed events
///    up to its acknowledged cursor, so the registration's own events are
///    discarded: the subscription's prefix becomes the persisted
///    un-acknowledged tail and its offset is chosen so its next event gets
///    the persisted `next_sequence` — `PollAfter(acked)` then resumes
///    exactly where the subscriber left off.
///  * `!quiet` (WAL replay of the original registration): events
///    regenerate naturally from sequence 1, exactly as the original
///    emitted them (a later registration of a key joins its stream at the
///    same log position); only the fresh pool is preset.
///
/// A recovered registration joins its key's stream only when it carries
/// that stream's fresh pool. Otherwise — a directory written before
/// streams were shared, one pool per registration — it gets a stream of
/// its own that no later registration joins, so two pools never merge.
struct StreamRecoveryInfo {
  /// The original registration's fresh pool, in
  /// `HeadInstantiator::fresh_constants()` order (values already
  /// interned). Without it a replayed registration would mint different
  /// check constants and no persisted binding would line up.
  std::vector<TypedValue> fresh_pool;
  bool quiet = false;
  uint64_t next_sequence = 1;
  uint64_t acked_sequence = 0;
  uint64_t evicted_through = 0;  ///< persisted retention-cap horizon
  std::vector<StreamEvent> retained_events;
};

/// \brief The registry's live counter block (relaxed atomics, see
/// EngineCounters): how many bindings each apply rechecked versus
/// skipped, and where the recheck pressure comes from. ContributeStats
/// folds it into `engine.stats()`.
RAR_COUNTER_BLOCK(StreamCounters, RAR_STREAM_METRICS);

class RelevanceStreamRegistry : public ApplyListener {
 public:
  /// Attaches to `engine` (must outlive the registry).
  explicit RelevanceStreamRegistry(RelevanceEngine* engine);
  ~RelevanceStreamRegistry() override;

  RelevanceStreamRegistry(const RelevanceStreamRegistry&) = delete;
  RelevanceStreamRegistry& operator=(const RelevanceStreamRegistry&) = delete;

  /// Subscribes to the standing stream of a k-ary (or Boolean) union
  /// query. The first registration of a (query, options) key builds the
  /// stream: enumerates every current head binding, registers the Boolean
  /// instantiations with the engine, and evaluates them all once. Later
  /// registrations of the key join it without running a wave.
  Result<StreamId> Register(const UnionQuery& query,
                            StreamOptions options = {});

  /// Re-registers a subscription from persisted state (see
  /// StreamRecoveryInfo). Recovery only: the engine's configuration must
  /// already hold the state the info was captured against.
  Result<StreamId> RegisterRecovered(const UnionQuery& query,
                                     StreamOptions options,
                                     const StreamRecoveryInfo& info);

  /// Distinct shared streams (the waves an apply can run).
  size_t num_streams() const;
  /// Subscriptions, i.e. StreamIds handed out (dense, 0-based).
  size_t num_subscriptions() const;

  /// Hands out the subscription's events past its cursor. A non-retaining
  /// subscription acknowledges what it returns; a retaining one
  /// (StreamOptions::retain_events) keeps them until Acknowledge and
  /// advances only its delivery cursor. An empty Poll takes one shared
  /// lock, one stream mutex and no allocation.
  StreamDelta Poll(StreamId id);

  /// What PollAfter read under its one hold of the stream mutex.
  struct PollState {
    /// The subscription's retained backlog after the poll (what
    /// RetainedCount would read).
    size_t retained = 0;
    /// On a FailedPrecondition poll: the eviction horizon the cursor was
    /// tested against (what EvictedThrough read at that moment).
    uint64_t evicted_through = 0;
  };

  /// Retained-mode Poll from an explicit cursor: rewinds the delivery
  /// cursor to `cursor` (when behind it) and re-delivers every retained
  /// event after it — the reconnect/recovery path (`PollAfter(acked)` is
  /// gap-free). Equivalent to Poll for non-retaining subscriptions. Fails
  /// with FailedPrecondition when the retention cap has evicted events
  /// past `cursor` (the gap cannot be filled — re-Snapshot, then resume
  /// from the horizon, `state->evicted_through`). With `state`, also
  /// reports the backlog and horizon it read, so a caller needs no second
  /// lookup (a later EvictedThrough may already name a later horizon).
  Result<StreamDelta> PollAfter(StreamId id, uint64_t cursor,
                                PollState* state = nullptr);

  /// Confirms delivery through sequence `upto`: advances the acknowledged
  /// cursor (what snapshots persist) and releases the events no
  /// subscription of the stream still needs. Fails on non-retaining
  /// subscriptions and when `upto` exceeds the last emitted sequence (a
  /// cursor in the future would suppress delivery of events not yet
  /// emitted). Costs O(log subscribers + events released).
  Status Acknowledge(StreamId id, uint64_t upto);

  /// \brief A subscription's durable state, as snapshots capture it.
  struct StreamPersistState {
    UnionQuery query;
    StreamOptions options;
    std::vector<TypedValue> fresh_pool;  ///< inst.fresh_constants() order
    uint64_t next_sequence = 1;
    uint64_t acked_sequence = 0;
    uint64_t evicted_through = 0;  ///< retention-cap horizon (0 = none)
    std::vector<StreamEvent> retained_events;  ///< un-acknowledged tail
  };
  Result<StreamPersistState> DumpPersistState(StreamId id) const;

  /// Point-in-time state of the subscription's stream (bindings included).
  StreamSnapshot Snapshot(StreamId id) const;

  /// True when some binding still has a relevant frontier access.
  bool AnyRelevant(StreamId id) const;

  /// The currently relevant bindings with their witness accesses — what a
  /// stream-driven crawl performs next.
  std::vector<BindingView> RelevantBindings(StreamId id) const;

  /// The subscription's own retained backlog: events emitted to it and
  /// neither acknowledged nor evicted (the serving layer's backlog gauge).
  /// 0 for unknown or non-retaining subscriptions.
  size_t RetainedCount(StreamId id) const;

  /// Highest sequence (the subscription's numbering) the retention cap
  /// has evicted before the subscription acknowledged it (0 = none).
  uint64_t EvictedThrough(StreamId id) const;

  // ApplyListener:
  void OnApply(const ApplyEvent& event) override;
  void ContributeStats(EngineStats* stats) const override;

 private:
  /// Where a StreamId lives: its stream and its cursor there.
  struct SubscriptionRef {
    StreamState* stream = nullptr;
    Subscription* sub = nullptr;
  };
  SubscriptionRef subscription(StreamId id) const;
  StreamState* stream(StreamId id) const { return subscription(id).stream; }

  /// Shared registration body; `info` non-null on the recovery path.
  Result<StreamId> RegisterInternal(const UnionQuery& query,
                                    StreamOptions options,
                                    const StreamRecoveryInfo* info);

  /// Attaches a subscription to an existing stream (see the class
  /// comment); `info` non-null on the recovery path.
  Result<StreamId> Join(StreamState& s, const StreamRecoveryInfo* info);

  /// Appends one binding for a slot tuple (registers Q_b with the engine).
  /// Caller holds `s.mu`.
  Status AppendBinding(StreamState& s, const std::vector<Value>& slot_values);

  /// Delta-enumerates bindings introduced by active-domain growth and
  /// advances the candidate cursor. Caller holds `s.mu`.
  Status ExtendBindings(StreamState& s);

  /// Rechecks every binding whose stamp went stale, attributing recheck
  /// counts to `attribution_slot` (a RelationId, or num_relations_ for
  /// registration/Adom waves). For apply-driven waves `event` carries the
  /// landed delta and `performed_after` the registry's performed counter
  /// for the event's relation as of this apply — together they drive the
  /// value gate (unless StreamOptions::force_full_recheck); `adom_hit`
  /// says the event grew a domain this stream tracks (always
  /// `event->adom_grew` for streams without per-domain stamps). The
  /// registration wave passes nullptr/false and evaluates every binding.
  /// Caller holds `s.mu`.
  void RecheckWave(StreamState& s, size_t attribution_slot,
                   const ApplyEvent* event, uint64_t performed_after,
                   bool adom_hit);

  /// Builds the stream's {slot, value} -> bindings index and the
  /// per-relation unconstrained sets (first gated wave). Caller holds
  /// `s.mu`.
  void EnsureGateIndex(StreamState& s);

  /// Adds binding `idx` to the value index and unconstrained sets. Caller
  /// holds `s.mu`; the index must be built.
  void IndexBinding(StreamState& s, size_t idx);

  /// Seeds the secondary {relation, position, value} -> facts index from a
  /// configuration snapshot (first chase-carrying wave; the snapshot
  /// already contains the triggering event's facts). Caller holds `s.mu`.
  void EnsureFactIndex(StreamState& s);

  /// Appends the event's landed facts to the secondary index (no-op until
  /// it is built; drops the index for rebuild when the delta arrived
  /// uncollected). Caller holds `s.mu`.
  void AppendFactsToIndex(StreamState& s, const ApplyEvent& event);

  /// Marks in `s.wave_touched` every binding whose verdicts the event can
  /// move (see the class comment): slot-index hits, semijoin-chase hits,
  /// free-pattern fallbacks, and the irrelevant-uncertain residual
  /// (`adom_hit` widens the residual to every such binding). Returns false
  /// when the gate cannot be applied to this wave. Caller holds `s.mu`.
  bool MarkTouchedBindings(StreamState& s, const ApplyEvent& event,
                           bool adom_hit);

  /// Runs one free pattern's chase over the landed facts and marks the
  /// reachable bindings kTouchedSemijoin. Returns false when the chase
  /// overflowed its caps (caller falls back to marking the whole
  /// unconstrained set). Caller holds `s.mu`; both indexes must be built.
  bool RunSemijoinPlan(StreamState& s, const AtomGateConstraint& seed,
                       const SemijoinPlan& plan, const ApplyEvent& event);

  /// Value-gate restamp of one untouched stale binding: verifies the
  /// binding's stamp is stale by *exactly* this event (its hit-relation
  /// components at the event's pre-values, its grown per-domain Adom
  /// components at the wave's pre-brackets, everything else current) and,
  /// if so, advances just those components to the event's post-values.
  /// Returns false — binding must be re-evaluated — otherwise.
  bool TryGateRestamp(const StreamState& s, BindingState& b,
                      const ApplyEvent& event, uint64_t performed_after,
                      const VersionStamp& fresh_stamp) const;

  /// The pending frontier, cached registry-wide and refreshed when the
  /// apply generation moved (every apply shrinks or grows the frontier;
  /// waves of one apply across many streams share one fetch).
  std::shared_ptr<const std::vector<Access>> PendingSnapshot();

  /// Re-evaluates one binding against the engine, one FirstRelevant scan
  /// per probe; `stamp` is the registry stamp built *before* the engine
  /// reads (the staleness test's stamp is reused — a response landing
  /// mid-evaluation leaves it stale, and the next wave repairs the
  /// binding). Returns the events the transition produced (sequence
  /// numbers unassigned).
  std::vector<StreamEvent> EvalBinding(StreamState& s, BindingState& b,
                                       const std::vector<Access>& pending,
                                       VersionStamp stamp);

  /// The registry stamp of one binding (see the class comment).
  VersionStamp StampFor(const StreamState& s, const BindingState& b) const;

  /// Appends `events` to the stream's shared log, assigning sequence
  /// numbers, updating the relevant/certain tallies and applying the
  /// retention cap. Caller holds `s.mu`.
  void CommitEvents(StreamState& s, std::vector<StreamEvent> events);

  RelevanceEngine* engine_;
  const size_t num_relations_;

  /// Guards the three indexes below (streams are never removed).
  mutable std::shared_mutex streams_mu_;
  std::vector<std::unique_ptr<StreamState>> streams_;
  std::vector<SubscriptionRef> subscriptions_;  ///< indexed by StreamId
  /// Sharing key (query structure + options, see StreamKey) -> stream.
  std::unordered_map<std::string, StreamState*> by_key_;

  StreamCounters counters_;
  /// Per-relation count of accesses applied through the engine — the
  /// frontier-shrink component of binding stamps (performing an access
  /// removes it from the pending set even when it adds no fact).
  std::unique_ptr<std::atomic<uint64_t>[]> performed_by_relation_;
  /// Recheck attribution, indexed by RelationId; the trailing slot counts
  /// registration and Adom-growth waves.
  std::unique_ptr<std::atomic<uint64_t>[]> rechecks_by_relation_;

  /// Frontier-change generation: bumped at the top of every OnApply,
  /// *before* the performed counter — so a wave whose stamps observed an
  /// apply's performed bump is guaranteed to see its generation bump at
  /// fetch time and refresh the cache (the stamp reads acquire what the
  /// performed release-increment published).
  std::atomic<uint64_t> pending_generation_{0};
  std::mutex pending_mu_;  ///< guards the two cache fields below
  std::shared_ptr<const std::vector<Access>> pending_cache_;
  uint64_t pending_cached_generation_ = 0;
};

}  // namespace rar

#endif  // RAR_STREAM_REGISTRY_H_
