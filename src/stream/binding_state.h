// Resident per-binding state of a standing stream.
//
// One `BindingState` per enumerated head instantiation: the Boolean
// binding query lives inside the engine (registered as a regular engine
// query, so it gets the decision cache, certainty memo and footprint
// stamps for free); the stream side keeps the verdict gauges, the witness
// access, and the *registry stamp* — the engine's footprint version
// sub-vector extended with per-relation performed-access counters and the
// active-domain version, which is exactly the state the binding's
// "some frontier access is still relevant" verdict reads. A binding is
// rechecked only when a freshly built stamp differs.
//
// `StreamState` is one stream's resident aggregate: instantiator,
// candidate cursor, bindings, the shared event log with its subscription
// cursors, and the relevance/certainty tallies. It is guarded by its own
// mutex (`mu`): recheck waves hold it while fanning per-binding work out,
// so Poll/Snapshot observe only quiesced states.
#ifndef RAR_STREAM_BINDING_STATE_H_
#define RAR_STREAM_BINDING_STATE_H_

#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "engine/decision_cache.h"
#include "query/footprint.h"
#include "relational/pos_value.h"
#include "relational/version.h"
#include "relevance/head_instantiator.h"
#include "stream/stream.h"

namespace rar {

/// Sentinel for StreamState::wave_adom_pre/post: the wave's event did not
/// grow this domain (its stamp component must equal the fresh stamp's).
inline constexpr uint64_t kAdomUnmoved = ~uint64_t{0};

/// \brief One tracked head instantiation.
struct BindingState {
  std::vector<Value> slot_values;  ///< deduplicated slot tuple
  std::vector<Value> tuple;        ///< expanded k-tuple (head positions)
  /// Engine id of the Boolean binding query Q_b (unset when `unsat`).
  QueryId qid = 0;
  /// Relations of the *surviving* disjuncts of Q_b — possibly narrower
  /// than the stream query's footprint when a binding collapses disjuncts.
  RelationFootprint footprint;
  bool unsat = false;      ///< no disjunct survived: permanently inert
  bool has_fresh = false;  ///< tuple uses a Prop 2.2 fresh constant
  bool certain = false;    ///< sticky (the configuration only grows)
  bool relevant = false;
  Access witness;          ///< last access found relevant (when `relevant`)
  bool has_witness = false;
  VersionStamp stamp;      ///< registry stamp of the last evaluation
  bool evaluated = false;  ///< `stamp` holds a real evaluation
  /// Bit d set when disjunct d of the stream query survived instantiation
  /// (see HeadInstantiator::Instantiate); the value gate consults it so a
  /// landed fact matching only a dropped disjunct's atom does not pull the
  /// binding into a wave. Meaningful for queries with < 64 disjuncts (the
  /// gate is disabled beyond that).
  uint64_t disjunct_mask = 0;
};

/// \brief One hop of a semijoin chase: an atom of the seed's disjunct,
/// reached through a join variable that earlier hops (or the seed) already
/// bound. Executing the step probes the stream's secondary fact index at
/// `(relation, lookup_pos, v)` for every reachable value `v` of
/// `lookup_var`, filters the facts by the atom's constants and by
/// membership of the other known-variable positions, then extends the
/// per-variable value sets (`derive_vars`) and the per-slot candidate sets
/// (`derive_slots`). Variable value sets are tracked independently
/// (correlations between variables are dropped) — a sound
/// over-approximation of every homomorphism's assignments.
struct SemijoinStep {
  RelationId relation = kInvalidId;
  int lookup_pos = 0;       ///< position probed through the fact index
  VarId lookup_var = 0;     ///< already-bound variable at that position
  /// (position, constant) filters of the atom.
  std::vector<std::pair<int, Value>> consts;
  /// Other positions holding already-bound variables: membership filters.
  std::vector<std::pair<int, VarId>> known_vars;
  /// Positions holding variables this step binds for later hops.
  std::vector<std::pair<int, VarId>> derive_vars;
  /// (position, head slot) pairs: matching facts' values here are slot
  /// candidates — the anchors that let the chase mark bindings.
  std::vector<std::pair<int, size_t>> derive_slots;
};

/// \brief The chase plan of one constraint-free pattern: from a fact
/// landing on the seed atom, follow shared non-head variables through the
/// disjunct's other atoms until head-slot positions are reached. A
/// current-configuration homomorphism of Q_b that uses the landed fact at
/// the seed atom must assign every `bounded_slots` entry a value the chase
/// collects (DESIGN.md, "Value-gated hit waves"), so bindings outside the
/// candidate sets need no certainty recheck. Empty `bounded_slots` means
/// no slot-anchored atom is join-connected to the seed — no narrowing.
struct SemijoinPlan {
  size_t disjunct = 0;
  std::vector<SemijoinStep> steps;
  std::vector<size_t> bounded_slots;  ///< sorted, unique
};

/// \brief The value gate of one stream relation: the unification patterns
/// of the stream query's atoms over it, split by whether the pattern
/// constrains any head slot (see AtomGateConstraint).
struct RelationGate {
  RelationId relation = kInvalidId;
  /// Patterns with at least one head-slot position: a landed fact reaches
  /// a binding only through the value index.
  std::vector<AtomGateConstraint> slot_patterns;
  /// Patterns with no head-slot position: any fact passing the constant
  /// check reaches every binding whose disjunct survived — narrowed by the
  /// semijoin chase when a plan bounds some slot, the
  /// "unconstrained position" fallback set otherwise.
  std::vector<AtomGateConstraint> free_patterns;
  /// Chase plans, parallel to `free_patterns` (built only when the
  /// stream's `semijoin_supported`).
  std::vector<SemijoinPlan> free_plans;
  /// Bindings with a surviving free pattern on this relation, indexed once
  /// with the value index (append-only, like the binding list).
  std::vector<uint32_t> unconstrained_bindings;
};

/// \brief One registration's cursor on a shared stream. Its events are
/// numbered 1, 2, 3, ... in its own numbering: first a private `prefix`,
/// then every shared event past `join`, shared sequence s arriving as
/// own sequence `base + s - join`.
struct Subscription {
  uint64_t join = 0;  ///< last shared sequence before the subscription
  uint64_t base = 0;  ///< own sequence of shared event `join` (prefix end)
  uint64_t acked = 0;      ///< last own sequence the subscriber confirmed
  uint64_t delivered = 0;  ///< last own sequence a retained Poll handed out
  /// Retention-cap horizon (own numbering) as of the last acknowledgement;
  /// the live horizon also counts evictions since (see the registry).
  uint64_t evicted = 0;
  /// Private events with own sequences <= base not yet acknowledged or
  /// evicted (from `prefix_head` on): a joiner's registration events, or a
  /// restored retained tail.
  std::vector<StreamEvent> prefix;
  size_t prefix_head = 0;

  /// The shared position this subscription has acknowledged through.
  uint64_t AckedShared() const {
    return acked > base ? join + (acked - base) : join;
  }
  /// Own sequence of shared event `s` (s >= join).
  uint64_t Own(uint64_t s) const { return base + (s - join); }
};

/// \brief One stream's resident state, shared by every subscription of
/// its (query, options) key. Owned by the registry; all fields after
/// construction are guarded by `mu`.
struct StreamState {
  StreamState(const Schema& schema, const UnionQuery& q, StreamOptions opts,
              const std::vector<TypedValue>* preset_fresh = nullptr)
      : query(q),
        options(opts),
        full_recheck(opts.force_full_recheck),
        inst(schema, q, preset_fresh) {}

  UnionQuery query;
  /// As registered: part of the sharing key, and what snapshots persist.
  StreamOptions options;
  /// Waves re-evaluate every stale binding: registered with
  /// StreamOptions::force_full_recheck, or degraded since (Degrade). Kept
  /// apart from `options` so degrading changes neither the key nor the
  /// persisted registration.
  bool full_recheck = false;
  HeadInstantiator inst;
  /// StreamId of the registration that built this stream (set once before
  /// publication; read by wave trace events).
  StreamId id = 0;
  /// Active-domain values already expanded into bindings, per distinct
  /// head domain (`seen` is the delta-enumeration cursor).
  HeadCandidates candidates;
  /// The stream query's own relations (every binding footprint is a
  /// subset) — the stream-level fast-skip filter.
  RelationFootprint query_footprint;
  /// Extra relations the LTR verdicts read beyond a binding's footprint:
  /// with dependent methods in play, an access over *any* method relation
  /// can be LTR-relevant through a production chain (mirror of the
  /// engine's StripesForCheck widening); empty for IR-only streams and
  /// all-independent method sets.
  std::vector<RelationId> extra_relations;

  std::vector<BindingState> bindings;
  size_t num_relevant = 0;
  size_t num_certain = 0;
  size_t num_unsat = 0;
  /// Registration or delta enumeration failed mid-way: the stream's
  /// binding set is incomplete and maintenance has stopped (reads still
  /// serve the last consistent state).
  bool defunct = false;

  // --- value gate (see registry.h, "Value-gated hit waves") -------------
  /// The gate applies to this stream at all: < 64 disjuncts, and not LTR
  /// under dependent methods (production chains escape atom unification).
  bool gate_supported = false;
  /// One gate per stream-footprint relation (sorted by relation id).
  std::vector<RelationGate> gates;
  /// The inverted head-value index: {slot, value} -> bindings whose slot
  /// holds that value. Built lazily on the first gated wave, maintained on
  /// delta enumeration; settled bindings keep their (harmless) entries.
  std::unordered_map<PosValueKey, std::vector<uint32_t>, PosValueKeyHash>
      value_index;
  bool index_built = false;

  // --- semijoin narrowing + per-domain Adom (IR-only streams) -----------
  /// Stamps carry one Adom component per `adom_domains` entry instead of
  /// the global Adom version. Sound for IR-only streams: their verdicts
  /// read the active domain only through binding enumeration (head
  /// domains) and frontier minting (input domains of dependent methods
  /// over footprint relations) — growth elsewhere is invisible. LTR
  /// deciders enumerate the whole Adom, so LTR streams keep the global
  /// component.
  bool per_domain_adom = false;
  std::vector<DomainId> adom_domains;  ///< sorted, unique
  /// Gated free-pattern hits narrow through semijoin plans, and Adom
  /// growth waves gate to {fact-touched, newborn, residual}: requires the
  /// value gate plus IR-only verdicts (the narrowing argument hinges on
  /// IR monotonicity under configuration growth — see DESIGN.md).
  bool semijoin_supported = false;
  /// The (relation, position) pairs some chase step probes (sorted,
  /// unique) — the key set of `fact_index`.
  std::vector<std::pair<RelationId, int>> indexed_positions;
  /// The secondary non-head value index: {relation, position, value} ->
  /// facts. Seeded lazily from a configuration snapshot at the first
  /// chase-carrying wave, then maintained from each apply's landed delta
  /// (duplicates from the seed race are harmless: the chase collects
  /// candidate *sets*). Dropped and rebuilt if a delta arrives
  /// uncollected.
  std::unordered_map<RelPosValueKey, std::vector<Fact>, RelPosValueKeyHash>
      fact_index;
  bool fact_index_built = false;

  // --- reusable wave scratch (guarded by mu, cleared per wave) ----------
  std::vector<size_t> wave_stale;
  std::vector<VersionStamp> wave_stamps;
  std::vector<std::vector<StreamEvent>> wave_events;
  std::vector<char> wave_resolved;
  std::vector<size_t> wave_remaining;
  std::vector<char> wave_touched;  ///< per-binding gate verdict
  /// Per-`adom_domains` version brackets of the wave's event (index i
  /// pairs with adom_domains[i]); kAdomUnmoved marks domains the event
  /// did not grow, whose stamp components must match the fresh stamp.
  std::vector<uint64_t> wave_adom_pre;
  std::vector<uint64_t> wave_adom_post;

  // --- shared event log and its subscriptions ---------------------------
  /// Cursors of later registrations of the key (owned one by one: joining
  /// never moves a cursor the registry points to).
  std::vector<std::unique_ptr<Subscription>> joiners;

  mutable std::mutex mu;
  // What Poll reads sits beside `mu` (plus the options).
  /// Next shared sequence to assign (the log numbers events 1, 2, 3, ...).
  uint64_t next_sequence = 1;
  /// Cursor of the registration that built the stream.
  Subscription builder;
  /// Events still needed by some subscription: log[log_head + i] carries
  /// shared sequence log_base + 1 + i. The front is released up to the
  /// lowest acknowledged position and, with retain_cap, to the cap;
  /// released entries are erased once they make up half the vector.
  std::vector<StreamEvent> log;
  size_t log_head = 0;
  uint64_t log_base = 0;
  /// Every subscription's acknowledged shared position (Subscription::
  /// AckedShared), starting with the builder's (0): the minimum bounds
  /// what the log must keep.
  std::multiset<uint64_t> acked_positions{0};
};

/// The read-only view of one binding (Snapshot / RelevantBindings rows).
BindingView MakeBindingView(const BindingState& b);

}  // namespace rar

#endif  // RAR_STREAM_BINDING_STATE_H_
