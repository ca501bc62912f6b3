#include "stream/registry.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace rar {

namespace {

// Whether a `kind` check of an access through `method` can matter for a
// binding with footprint `fp`: an IR verdict can only come from an access
// over the binding's own relations (response facts elsewhere never change
// Q_b); same for LTR under an all-independent method set, while dependent
// LTR may chain through any method relation. EvalBinding's scans ask it
// once per method (RelevanceEngine::FirstRelevant).
bool CheckApplicable(const AccessMethodSet& acs, const RelationFootprint& fp,
                     CheckKind kind, AccessMethodId method) {
  if (method >= acs.size()) return false;
  const RelationId rel = acs.method(method).relation;
  if (kind == CheckKind::kImmediate) return fp.Contains(rel);
  return !acs.AllIndependent() || fp.Contains(rel);
}

// How a gated wave's MarkTouchedBindings reached a binding (wave_touched
// values; 0 = untouched).
constexpr char kTouchedSlot = 1;      ///< via the {slot, value} index
constexpr char kTouchedFree = 2;      ///< free pattern, chase unavailable
constexpr char kTouchedSemijoin = 3;  ///< via the semijoin chase
constexpr char kTouchedResidual = 4;  ///< irrelevant-uncertain residual

// Chase guard rails: beyond these the wave stops narrowing and falls back
// to the whole unconstrained set (soundness never depends on them).
constexpr size_t kChaseValueCap = 4096;   ///< distinct values collected
constexpr size_t kChaseProbeCap = 16384;  ///< facts examined

// A fact satisfies an atom's repeated non-head variables only when it
// carries equal values at every position of each variable.
bool RepeatsMatch(const std::vector<std::pair<int, VarId>>& vars,
                  const Fact& f) {
  for (size_t i = 0; i < vars.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (vars[i].second == vars[j].second &&
          f.values[vars[i].first] != f.values[vars[j].first]) {
        return false;
      }
    }
  }
  return true;
}

// Builds the semijoin chase plan seeded at `atoms[seed]` (a constraint-
// free pattern): starting from the seed's non-head variables, repeatedly
// absorb an atom of the same disjunct that shares a bound variable. Each
// absorbed atom becomes a step when it binds new variables or anchors
// head slots; atoms sharing no variable with the seed's join component
// are left out (their slots stay unbounded — the chase only requires
// membership at `bounded_slots`, so unreachable anchors never
// over-narrow).
SemijoinPlan BuildSemijoinPlan(const std::vector<AtomGateConstraint>& atoms,
                               size_t seed, size_t num_vars) {
  SemijoinPlan plan;
  plan.disjunct = atoms[seed].disjunct;
  std::vector<char> known(num_vars, 0);
  for (const auto& [pos, var] : atoms[seed].free_vars) known[var] = 1;
  std::vector<char> used(atoms.size(), 0);
  used[seed] = 1;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t a = 0; a < atoms.size(); ++a) {
      if (used[a] || atoms[a].disjunct != plan.disjunct) continue;
      const AtomGateConstraint& c = atoms[a];
      int lookup_pos = -1;
      VarId lookup_var = 0;
      for (const auto& [pos, var] : c.free_vars) {
        if (known[var]) {
          lookup_pos = pos;
          lookup_var = var;
          break;
        }
      }
      if (lookup_pos < 0) continue;
      used[a] = 1;
      progress = true;
      SemijoinStep step;
      step.relation = c.relation;
      step.lookup_pos = lookup_pos;
      step.lookup_var = lookup_var;
      step.consts = c.required_consts;
      for (const auto& [pos, var] : c.free_vars) {
        if (pos == lookup_pos) continue;
        (known[var] ? step.known_vars : step.derive_vars)
            .emplace_back(pos, var);
      }
      step.derive_slots = c.required_slots;
      for (const auto& [pos, var] : step.derive_vars) known[var] = 1;
      // A step that neither binds variables nor anchors slots cannot
      // shrink independently-tracked value sets: drop it.
      if (!step.derive_vars.empty() || !step.derive_slots.empty()) {
        plan.steps.push_back(std::move(step));
      }
    }
  }
  for (const SemijoinStep& step : plan.steps) {
    for (const auto& [pos, slot] : step.derive_slots) {
      plan.bounded_slots.push_back(slot);
    }
  }
  std::sort(plan.bounded_slots.begin(), plan.bounded_slots.end());
  plan.bounded_slots.erase(
      std::unique(plan.bounded_slots.begin(), plan.bounded_slots.end()),
      plan.bounded_slots.end());
  return plan;
}

// The sharing key of a registration: every StreamOptions field a verdict
// or a delivery depends on, then the query per disjunct — variable
// domains (as validation infers them), head and atoms, with variable
// names left out. Equal keys decide identical verdicts, so their
// registrations share one stream.
std::string StreamKey(const Schema& schema, const UnionQuery& query,
                      const StreamOptions& o) {
  UnionQuery q = query;
  if (!q.Validate(schema).ok()) q = query;  // key the structure as given
  std::string key;
  auto put = [&key](uint64_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(o.use_immediate);
  put(o.use_long_term);
  put(o.conservative_on_unknown);
  put(o.force_full_recheck);
  put(o.retain_events);
  put(o.retain_cap);
  put(q.disjuncts.size());
  for (const ConjunctiveQuery& d : q.disjuncts) {
    put(d.var_domains.size());
    for (DomainId dom : d.var_domains) put(dom);
    put(d.head.size());
    for (VarId h : d.head) put(h);
    put(d.atoms.size());
    for (const Atom& a : d.atoms) {
      put(a.relation);
      put(a.terms.size());
      for (const Term& t : a.terms) {
        put(static_cast<uint64_t>(t.kind));
        put(t.is_var() ? t.var : t.constant.Packed());
      }
    }
  }
  return key;
}

// A subscription's last emitted sequence (its own numbering).
uint64_t OwnLast(const StreamState& s, const Subscription& sub) {
  return sub.Own(s.next_sequence - 1);
}

// A subscription's retention-cap horizon: the events a private stream
// would have evicted by now — everything more than `retain_cap` behind
// its last event, once its un-acknowledged backlog outgrew the cap — on
// top of what it had lost when it last acknowledged.
uint64_t Horizon(const StreamState& s, const Subscription& sub) {
  const uint64_t cap = s.options.retain_events ? s.options.retain_cap : 0;
  const uint64_t last = OwnLast(s, sub);
  if (cap > 0 && last > sub.acked + cap) {
    return std::max(sub.evicted, last - cap);
  }
  return sub.evicted;
}

// Drops prefix events at or below `upto` (own numbering); the vector is
// freed once the last one goes.
void TrimPrefix(Subscription& sub, uint64_t upto) {
  while (sub.prefix_head < sub.prefix.size() &&
         sub.prefix[sub.prefix_head].sequence <= upto) {
    ++sub.prefix_head;
  }
  if (sub.prefix_head == sub.prefix.size() && sub.prefix_head > 0) {
    sub.prefix = {};
    sub.prefix_head = 0;
  }
}

// Releases the log's `n` oldest live events; the released prefix is
// erased once it makes up half the vector (amortized O(1) per event).
void ReleaseOldest(StreamState& s, size_t n) {
  s.log_head += n;
  s.log_base += n;
  if (s.log_head * 2 >= s.log.size()) {
    s.log.erase(s.log.begin(), s.log.begin() + s.log_head);
    s.log_head = 0;
  }
}

// The lowest acknowledged shared position among the stream's
// subscriptions.
uint64_t MinAcked(const StreamState& s) { return *s.acked_positions.begin(); }

// Releases shared events every subscription has acknowledged.
void TrimLog(StreamState& s) {
  const uint64_t keep_after = MinAcked(s);
  if (keep_after > s.log_base) {
    ReleaseOldest(s, std::min<size_t>(keep_after - s.log_base,
                                      s.log.size() - s.log_head));
  }
}

// Advances a subscription's acknowledged cursor to `upto` (> acked). The
// horizon is materialized first: evictions the subscriber had not
// acknowledged stay a gap after the cursor moves past them.
void SetAcked(StreamState& s, Subscription& sub, uint64_t upto) {
  sub.evicted = Horizon(s, sub);
  const uint64_t before = sub.AckedShared();
  sub.acked = upto;
  if (upto > sub.delivered) sub.delivered = upto;
  if (before == sub.AckedShared()) return;
  // Move this subscription's entry (node reuse: no allocation).
  auto node = s.acked_positions.extract(s.acked_positions.find(before));
  node.value() = sub.AckedShared();
  s.acked_positions.insert(std::move(node));
}

// Appends the subscription's events (from, to] (own numbering) to `out`,
// renumbered. Shared events at or below `move_through` are moved out of
// the log (no subscription needs them any more), the rest copied; prefix
// events are moved when `consume`. The caller guarantees the range is
// retained: `from` is at or past the acknowledged cursor and horizon.
void EmitRange(StreamState& s, Subscription& sub, uint64_t from, uint64_t to,
               bool consume, uint64_t move_through,
               std::vector<StreamEvent>* out) {
  if (to <= from) return;
  out->reserve(out->size() + (to - from));
  if (from < sub.base && sub.prefix_head < sub.prefix.size()) {
    const uint64_t first = sub.prefix[sub.prefix_head].sequence;
    size_t i = sub.prefix_head +
               (from + 1 > first ? static_cast<size_t>(from + 1 - first) : 0);
    for (; i < sub.prefix.size() && sub.prefix[i].sequence <= to; ++i) {
      if (consume) {
        out->push_back(std::move(sub.prefix[i]));
      } else {
        out->push_back(sub.prefix[i]);
      }
    }
  }
  for (uint64_t q = std::max(from, sub.base) + 1; q <= to; ++q) {
    const uint64_t shared = sub.join + (q - sub.base);
    StreamEvent& e =
        s.log[s.log_head + static_cast<size_t>(shared - s.log_base - 1)];
    if (shared <= move_through) {
      out->push_back(std::move(e));
    } else {
      out->push_back(e);
    }
    out->back().sequence = q;
  }
}

// Snapshot restore: turns `sub` (attached at the log's end) into the
// persisted cursor — prefix = retained tail, offset such that the next
// event gets `info.next_sequence`. Caller holds `s.mu`.
void RestoreCursor(const StreamState& s, Subscription& sub,
                   const StreamRecoveryInfo& info) {
  sub.join = s.next_sequence - 1;
  sub.base = info.next_sequence - 1;
  sub.prefix.assign(info.retained_events.begin(), info.retained_events.end());
  sub.acked = info.acked_sequence;
  sub.delivered = info.acked_sequence;
  sub.evicted = info.evicted_through;
}

// RetainedCount's body: the subscription's un-acknowledged, un-evicted
// events. Caller holds `s.mu`.
size_t RetainedLocked(const StreamState& s, const Subscription& sub) {
  if (!s.options.retain_events) return 0;
  return static_cast<size_t>(OwnLast(s, sub) -
                             std::max(sub.acked, Horizon(s, sub)));
}

// Poll's body: hands out the subscription's events past its cursor (see
// RelevanceStreamRegistry::Poll). Caller holds `s.mu`.
StreamDelta PollLocked(StreamState& s, Subscription& sub) {
  StreamDelta delta;
  const uint64_t last = OwnLast(s, sub);
  delta.last_sequence = last;
  if (!s.options.retain_events) {
    // One cursor: a non-retaining Poll acknowledges what it returns, and
    // what every subscription has acknowledged moves out of the log.
    if (last == sub.acked) return delta;
    const uint64_t from = sub.acked;
    SetAcked(s, sub, last);
    EmitRange(s, sub, from, last, /*consume=*/true, MinAcked(s),
              &delta.events);
    TrimPrefix(sub, last);
    TrimLog(s);
    return delta;
  }
  // Retained mode: copy past the delivery cursor; events survive until
  // Acknowledge so a reconnecting subscriber can PollAfter(acked).
  const uint64_t horizon = Horizon(s, sub);
  TrimPrefix(sub, std::max(sub.acked, horizon));
  const uint64_t from = std::max({sub.delivered, sub.acked, horizon});
  EmitRange(s, sub, from, last, /*consume=*/false, /*move_through=*/0,
            &delta.events);
  if (last > from) sub.delivered = last;
  delta.evicted_through = horizon;
  return delta;
}

}  // namespace

RelevanceStreamRegistry::RelevanceStreamRegistry(RelevanceEngine* engine)
    : engine_(engine), num_relations_(engine->schema().num_relations()) {
  performed_by_relation_ = std::make_unique<std::atomic<uint64_t>[]>(
      std::max<size_t>(num_relations_, 1));
  for (size_t r = 0; r < num_relations_; ++r) {
    performed_by_relation_[r].store(0, std::memory_order_relaxed);
  }
  rechecks_by_relation_ =
      std::make_unique<std::atomic<uint64_t>[]>(num_relations_ + 1);
  for (size_t r = 0; r <= num_relations_; ++r) {
    rechecks_by_relation_[r].store(0, std::memory_order_relaxed);
  }
  engine_->AddApplyListener(this);
}

RelevanceStreamRegistry::~RelevanceStreamRegistry() {
  engine_->RemoveApplyListener(this);
}

RelevanceStreamRegistry::SubscriptionRef
RelevanceStreamRegistry::subscription(StreamId id) const {
  std::shared_lock<std::shared_mutex> lock(streams_mu_);
  return id < subscriptions_.size() ? subscriptions_[id] : SubscriptionRef{};
}

Result<StreamId> RelevanceStreamRegistry::Register(const UnionQuery& query,
                                                   StreamOptions options) {
  return RegisterInternal(query, options, /*info=*/nullptr);
}

Result<StreamId> RelevanceStreamRegistry::RegisterRecovered(
    const UnionQuery& query, StreamOptions options,
    const StreamRecoveryInfo& info) {
  return RegisterInternal(query, options, &info);
}

Result<StreamId> RelevanceStreamRegistry::RegisterInternal(
    const UnionQuery& query, StreamOptions options,
    const StreamRecoveryInfo* info) {
  const std::string key = StreamKey(engine_->schema(), query, options);
  // A recovered registration joins only a stream with its own fresh pool
  // (the pool is fixed at construction). Directories written before
  // streams were shared hold one pool per registration of a key; such a
  // registration gets a stream of its own, entered under no key, so two
  // pools are never merged.
  auto joinable = [info](const StreamState& t) {
    return info == nullptr || info->fresh_pool == t.inst.fresh_constants();
  };
  {
    std::shared_lock<std::shared_mutex> lock(streams_mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end() && joinable(*it->second)) {
      StreamState* shared = it->second;
      lock.unlock();
      return Join(*shared, info);
    }
  }

  auto owned = std::make_unique<StreamState>(
      engine_->schema(), query, options,
      info != nullptr ? &info->fresh_pool : nullptr);
  StreamState& s = *owned;
  RAR_RETURN_NOT_OK(s.inst.status());
  s.query_footprint = RelationFootprint::Of(query);

  // With dependent methods, an LTR verdict can hinge on *any* method
  // relation (production chains) — those relations join every binding's
  // stamp. All-independent sets and IR-only streams stay footprint-narrow.
  const AccessMethodSet& acs = engine_->access_methods();
  if (options.use_long_term && !acs.AllIndependent()) {
    for (AccessMethodId m = 0; m < acs.size(); ++m) {
      s.extra_relations.push_back(acs.method(m).relation);
    }
    std::sort(s.extra_relations.begin(), s.extra_relations.end());
    s.extra_relations.erase(
        std::unique(s.extra_relations.begin(), s.extra_relations.end()),
        s.extra_relations.end());
  }

  // Per-domain Adom tracking: IR-only verdicts read the active domain
  // only through binding enumeration (head domains) and frontier minting
  // (input domains of dependent methods over footprint relations), so the
  // stamps track exactly those domains and growth elsewhere is invisible.
  // LTR deciders enumerate the whole Adom — those streams keep the global
  // version.
  s.per_domain_adom = options.use_immediate && !options.use_long_term;
  if (s.per_domain_adom) {
    const Schema& schema = engine_->schema();
    for (size_t d = 0; d < s.inst.num_domains(); ++d) {
      s.adom_domains.push_back(s.inst.domain(d));
    }
    for (AccessMethodId m = 0; m < acs.size(); ++m) {
      const AccessMethod& am = acs.method(m);
      if (!am.dependent || !s.query_footprint.Contains(am.relation)) continue;
      const Relation& rel = schema.relation(am.relation);
      for (int pos : am.input_positions) {
        s.adom_domains.push_back(rel.attributes[pos].domain);
      }
    }
    std::sort(s.adom_domains.begin(), s.adom_domains.end());
    s.adom_domains.erase(
        std::unique(s.adom_domains.begin(), s.adom_domains.end()),
        s.adom_domains.end());
  }

  // Value gate: derivable only when verdicts are bounded by atom
  // unification (not dependent-method LTR) and the disjunct masks fit.
  s.gate_supported = s.extra_relations.empty() &&
                     query.disjuncts.size() < 64 &&
                     !options.force_full_recheck;
  // Semijoin narrowing and Adom delta-gating additionally need IR-only
  // verdicts (the soundness argument rests on IR monotonicity).
  s.semijoin_supported = s.gate_supported && s.per_domain_adom;
  if (s.gate_supported) {
    for (RelationId rel : s.query_footprint.relations) {
      RelationGate gate;
      gate.relation = rel;
      s.gates.push_back(std::move(gate));
    }
    const std::vector<AtomGateConstraint>& atoms = s.inst.gate_constraints();
    for (size_t ci = 0; ci < atoms.size(); ++ci) {
      const AtomGateConstraint& c = atoms[ci];
      for (RelationGate& gate : s.gates) {
        if (gate.relation != c.relation) continue;
        if (c.required_slots.empty()) {
          gate.free_patterns.push_back(c);
          if (s.semijoin_supported) {
            gate.free_plans.push_back(BuildSemijoinPlan(
                atoms, ci, query.disjuncts[c.disjunct].num_vars()));
            for (const SemijoinStep& step : gate.free_plans.back().steps) {
              s.indexed_positions.emplace_back(step.relation,
                                               step.lookup_pos);
            }
          }
        } else {
          gate.slot_patterns.push_back(c);
        }
        break;
      }
    }
    std::sort(s.indexed_positions.begin(), s.indexed_positions.end());
    s.indexed_positions.erase(
        std::unique(s.indexed_positions.begin(), s.indexed_positions.end()),
        s.indexed_positions.end());
  }

  // Publish the stream *before* reading the active domain, holding its
  // mutex: a response applied from here on blocks in OnApply until the
  // initial wave lands (instead of being missed), and one applied before
  // the candidate read below is already part of what it sees. A joiner
  // arriving meanwhile blocks on the mutex too.
  StreamState* shared = nullptr;
  std::unique_lock<std::mutex> setup(s.mu);
  {
    std::unique_lock<std::shared_mutex> lock(streams_mu_);
    auto [it, inserted] = by_key_.try_emplace(key, &s);
    if (!inserted && joinable(*it->second)) {
      shared = it->second;  // a concurrent registration of the key won
    } else {
      s.id = static_cast<StreamId>(subscriptions_.size());
      subscriptions_.push_back(SubscriptionRef{&s, &s.builder});
      streams_.push_back(std::move(owned));
    }
  }
  if (shared != nullptr) {
    setup.unlock();
    return Join(*shared, info);
  }
  counters_.Bump(counters_.streams_registered);
  counters_.Bump(counters_.stream_subscriptions);

  s.candidates.values.resize(s.inst.num_domains());
  s.candidates.seen.assign(s.inst.num_domains(), 0);
  for (size_t d = 0; d < s.inst.num_domains(); ++d) {
    s.candidates.values[d] = engine_->AdomValuesOf(s.inst.domain(d));
  }

  Status append = Status::OK();
  s.inst.ForEachBinding(s.candidates, [&](const std::vector<Value>& slots) {
    append = AppendBinding(s, slots);
    return !append.ok();
  });
  if (!append.ok()) {
    // Cannot happen for a query that passed validation (its Boolean
    // instantiations are valid engine queries), but never leave a
    // half-built stream live: stop maintaining it, and let no later
    // registration join it.
    s.defunct = true;
    std::unique_lock<std::shared_mutex> lock(streams_mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end() && it->second == &s) by_key_.erase(it);
    return append;
  }
  for (size_t d = 0; d < s.inst.num_domains(); ++d) {
    s.candidates.seen[d] = s.candidates.values[d].size();
  }
  RecheckWave(s, num_relations_, /*event=*/nullptr, /*performed_after=*/0,
              /*adom_hit=*/false);
  if (info != nullptr && info->quiet) {
    // Snapshot restore: the subscriber already consumed everything through
    // its acknowledged cursor, so the registration's own events are noise.
    // The verdict/binding state itself regenerated identically above (same
    // configuration, same fresh pool).
    RestoreCursor(s, s.builder, *info);
    s.acked_positions = {s.builder.AckedShared()};
    TrimLog(s);
  }
  return s.id;
}

Result<StreamId> RelevanceStreamRegistry::Join(StreamState& s,
                                               const StreamRecoveryInfo* info) {
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.defunct) {
    return Status::FailedPrecondition(
        "the stream this registration would share failed to build");
  }
  Subscription sub;
  if (info != nullptr && info->quiet) {
    RestoreCursor(s, sub, *info);
  } else {
    // The events a private registration would emit now, in its order:
    // every binding as enumerated over the current candidates (the stream
    // appended bindings born from growth instead), then each binding's
    // current verdict — at most one of certain/relevant. The order then
    // depends on the configuration alone, so replay after a snapshot
    // restore rebuilds the same prefix.
    sub.join = s.next_sequence - 1;
    std::map<std::vector<Value>, const BindingState*> by_slots;
    for (const BindingState& b : s.bindings) {
      by_slots.emplace(b.slot_values, &b);
    }
    std::vector<const BindingState*> order;
    order.reserve(s.bindings.size());
    s.inst.ForEachBinding(s.candidates, [&](const std::vector<Value>& slots) {
      auto it = by_slots.find(slots);
      if (it != by_slots.end()) order.push_back(it->second);
      return false;
    });
    for (const BindingState* b : order) {
      StreamEvent e;
      e.kind = StreamEventKind::kBindingAdded;
      e.binding = b->tuple;
      sub.prefix.push_back(std::move(e));
    }
    for (const BindingState* b : order) {
      if (!b->certain && !b->relevant) continue;
      StreamEvent e;
      e.kind = b->certain ? StreamEventKind::kBecameCertain
                          : StreamEventKind::kBecameRelevant;
      e.binding = b->tuple;
      sub.prefix.push_back(std::move(e));
    }
    for (size_t i = 0; i < sub.prefix.size(); ++i) {
      sub.prefix[i].sequence = i + 1;
    }
    sub.base = sub.prefix.size();
    // A private registration's retention cap would evict the oldest of
    // them at once.
    const uint64_t cap = s.options.retain_events ? s.options.retain_cap : 0;
    if (cap > 0 && sub.base > cap) {
      sub.evicted = sub.base - cap;
      TrimPrefix(sub, sub.evicted);
      counters_.Bump(counters_.stream_retained_evicted, sub.evicted);
    }
  }
  s.acked_positions.insert(sub.AckedShared());
  s.joiners.push_back(std::make_unique<Subscription>(std::move(sub)));
  StreamId id;
  {
    std::unique_lock<std::shared_mutex> registry_lock(streams_mu_);
    id = static_cast<StreamId>(subscriptions_.size());
    subscriptions_.push_back(SubscriptionRef{&s, s.joiners.back().get()});
  }
  counters_.Bump(counters_.stream_subscriptions);
  return id;
}

size_t RelevanceStreamRegistry::num_streams() const {
  std::shared_lock<std::shared_mutex> lock(streams_mu_);
  return streams_.size();
}

size_t RelevanceStreamRegistry::num_subscriptions() const {
  std::shared_lock<std::shared_mutex> lock(streams_mu_);
  return subscriptions_.size();
}

Status RelevanceStreamRegistry::AppendBinding(
    StreamState& s, const std::vector<Value>& slot_values) {
  BindingState b;
  b.slot_values = slot_values;
  b.tuple = s.inst.ExpandTuple(slot_values);
  b.has_fresh = s.inst.HasFresh(slot_values);
  UnionQuery q_b = s.inst.Instantiate(slot_values, &b.disjunct_mask);
  if (q_b.disjuncts.empty()) {
    // Repeated head variables received conflicting values in every
    // disjunct: Q_b is identically false, so the binding can never become
    // certain and no access is ever relevant to it.
    b.unsat = true;
    s.num_unsat += 1;
  } else {
    b.footprint = RelationFootprint::Of(q_b);
    RAR_ASSIGN_OR_RETURN(b.qid, engine_->RegisterQuery(q_b));
  }
  StreamEvent added;
  added.kind = StreamEventKind::kBindingAdded;
  added.binding = b.tuple;
  s.bindings.push_back(std::move(b));
  if (s.index_built) IndexBinding(s, s.bindings.size() - 1);
  counters_.Bump(counters_.stream_bindings);
  std::vector<StreamEvent> events;
  events.push_back(std::move(added));
  CommitEvents(s, std::move(events));
  return Status::OK();
}

Status RelevanceStreamRegistry::ExtendBindings(StreamState& s) {
  for (size_t d = 0; d < s.inst.num_domains(); ++d) {
    std::vector<Value> grown = engine_->AdomValuesOf(
        s.inst.domain(d), s.candidates.values[d].size());
    for (Value& v : grown) s.candidates.values[d].push_back(v);
  }
  const size_t before = s.bindings.size();
  Status append = Status::OK();
  s.inst.ForEachNewBinding(s.candidates,
                           [&](const std::vector<Value>& slots) {
                             append = AppendBinding(s, slots);
                             return !append.ok();
                           });
  counters_.Bump(counters_.stream_new_bindings,
                 static_cast<uint64_t>(s.bindings.size() - before));
  if (!append.ok()) {
    // Advancing the cursor would silently drop the never-appended
    // bindings from every future delta; a partial enumeration cannot be
    // resumed without duplicating the appended ones either, so the
    // stream stops being maintained. (Unreachable for validated stream
    // queries — see Register.)
    s.defunct = true;
    return append;
  }
  for (size_t d = 0; d < s.inst.num_domains(); ++d) {
    s.candidates.seen[d] = s.candidates.values[d].size();
  }
  return append;
}

VersionStamp RelevanceStreamRegistry::StampFor(const StreamState& s,
                                               const BindingState& b) const {
  VersionStamp stamp;
  stamp.reserve(
      2 * (b.footprint.relations.size() + s.extra_relations.size()) +
      (s.per_domain_adom ? s.adom_domains.size() : 1));
  auto push = [&](RelationId rel) {
    stamp.push_back(engine_->relation_version(rel));
    stamp.push_back(rel < num_relations_
                        ? performed_by_relation_[rel].load(
                              std::memory_order_acquire)
                        : 0);
  };
  for (RelationId rel : b.footprint.relations) push(rel);
  for (RelationId rel : s.extra_relations) {
    if (!b.footprint.Contains(rel)) push(rel);
  }
  // The Adom tail closes the frontier: new active-domain values mint new
  // candidate accesses (and, one level up, new bindings). IR-only streams
  // track only the domains those two channels read; everyone else tracks
  // the global version.
  if (s.per_domain_adom) {
    for (DomainId d : s.adom_domains) {
      stamp.push_back(engine_->adom_domain_version(d));
    }
  } else {
    stamp.push_back(engine_->adom_version());
  }
  return stamp;
}

std::vector<StreamEvent> RelevanceStreamRegistry::EvalBinding(
    StreamState& s, BindingState& b, const std::vector<Access>& pending,
    VersionStamp stamp) {
  const AccessMethodSet& acs = engine_->access_methods();
  const bool was_relevant = b.relevant;

  // Each probe is one engine scan: the first applicable access of a list
  // that is relevant for one kind, under one acquisition of the check
  // locks. A certain Q_b answers every check "irrelevant" (the engine's
  // sticky short-circuit), so the scans need no certainty pre-gate; a
  // relevant access *implies* not-certain, and an irrelevant binding
  // reuses the certainty its last scan read.
  std::optional<bool> certain;
  auto scan = [&](CheckKind kind, const Access* accesses, size_t count) {
    RelevanceEngine::ScanOutcome r = engine_->FirstRelevant(
        b.qid, kind, accesses, count,
        [&](AccessMethodId m) {
          return CheckApplicable(acs, b.footprint, kind, m);
        },
        s.options.conservative_on_unknown);
    if (r.certain.has_value()) certain = r.certain;
    return r.index;
  };
  bool relevant = false;
  Access witness;
  bool has_witness = false;
  // Witness-first: the access that made the binding relevant last time
  // usually still does, turning steady-state rechecks into one probe.
  if (b.has_witness && !engine_->WasPerformed(b.witness) &&
      ((s.options.use_immediate &&
        scan(CheckKind::kImmediate, &b.witness, 1) >= 0) ||
       (s.options.use_long_term &&
        scan(CheckKind::kLongTerm, &b.witness, 1) >= 0))) {
    relevant = true;
    witness = b.witness;
    has_witness = true;
  }
  auto scan_pending = [&](CheckKind kind) {
    const int index = scan(kind, pending.data(), pending.size());
    if (index < 0) return;
    relevant = true;
    witness = pending[index];
    has_witness = true;
  };
  if (!relevant && s.options.use_immediate) {
    scan_pending(CheckKind::kImmediate);
  }
  if (!relevant && s.options.use_long_term) {
    scan_pending(CheckKind::kLongTerm);
  }
  const bool is_certain =
      !relevant && (certain.has_value() ? *certain : engine_->IsCertain(b.qid));

  b.stamp = std::move(stamp);
  b.evaluated = true;
  std::vector<StreamEvent> events;
  auto emit = [&](StreamEventKind kind) {
    StreamEvent e;
    e.kind = kind;
    e.binding = b.tuple;
    events.push_back(std::move(e));
  };
  if (is_certain && !b.certain) {
    b.certain = true;
    emit(StreamEventKind::kBecameCertain);
  }
  const bool now_relevant = !is_certain && relevant;
  if (now_relevant && !was_relevant) emit(StreamEventKind::kBecameRelevant);
  if (!now_relevant && was_relevant) emit(StreamEventKind::kBecameIrrelevant);
  b.relevant = now_relevant;
  b.witness = witness;
  b.has_witness = has_witness;
  return events;
}

void RelevanceStreamRegistry::CommitEvents(StreamState& s,
                                           std::vector<StreamEvent> events) {
  for (StreamEvent& e : events) {
    switch (e.kind) {
      case StreamEventKind::kBecameCertain:
        s.num_certain += 1;
        break;
      case StreamEventKind::kBecameRelevant:
        s.num_relevant += 1;
        break;
      case StreamEventKind::kBecameIrrelevant:
        s.num_relevant -= 1;
        break;
      case StreamEventKind::kBindingAdded:
        break;
    }
    e.sequence = s.next_sequence++;
    counters_.Bump(counters_.stream_events);
    s.log.push_back(std::move(e));
  }
  // Retention cap: evict the oldest shared events beyond the cap, so a
  // subscriber that stopped polling cannot pin memory forever. The log
  // holds only events some subscription has not acknowledged, so each one
  // evicted is a gap for a lagging subscription; only those see their
  // horizon move (see Horizon). Non-retaining subscriptions acknowledge on
  // Poll and never hit this.
  const uint64_t cap = s.options.retain_cap;
  const size_t live = s.log.size() - s.log_head;
  if (s.options.retain_events && cap > 0 && live > cap) {
    const size_t excess = live - static_cast<size_t>(cap);
    ReleaseOldest(s, excess);
    counters_.Bump(counters_.stream_retained_evicted, excess);
  }
}

void RelevanceStreamRegistry::EnsureGateIndex(StreamState& s) {
  if (s.index_built) return;
  s.index_built = true;
  for (size_t i = 0; i < s.bindings.size(); ++i) IndexBinding(s, i);
}

void RelevanceStreamRegistry::IndexBinding(StreamState& s, size_t idx) {
  const BindingState& b = s.bindings[idx];
  if (b.unsat) return;  // inert: no wave ever looks at it
  for (size_t slot = 0; slot < b.slot_values.size(); ++slot) {
    s.value_index[PosValueKey{static_cast<int>(slot), b.slot_values[slot]}]
        .push_back(static_cast<uint32_t>(idx));
  }
  for (RelationGate& gate : s.gates) {
    for (const AtomGateConstraint& p : gate.free_patterns) {
      if ((b.disjunct_mask >> p.disjunct) & 1) {
        gate.unconstrained_bindings.push_back(static_cast<uint32_t>(idx));
        break;
      }
    }
  }
}

void RelevanceStreamRegistry::EnsureFactIndex(StreamState& s) {
  if (s.fact_index_built || s.indexed_positions.empty()) return;
  s.fact_index_built = true;
  size_t i = 0;
  while (i < s.indexed_positions.size()) {
    const RelationId rel = s.indexed_positions[i].first;
    size_t end = i;
    while (end < s.indexed_positions.size() &&
           s.indexed_positions[end].first == rel) {
      ++end;
    }
    const std::vector<Fact> facts = engine_->RelationFactsSnapshot(rel);
    for (const Fact& f : facts) {
      for (size_t j = i; j < end; ++j) {
        const int pos = s.indexed_positions[j].second;
        s.fact_index[RelPosValueKey{rel, pos, f.values[pos]}].push_back(f);
      }
    }
    i = end;
  }
}

void RelevanceStreamRegistry::AppendFactsToIndex(StreamState& s,
                                                 const ApplyEvent& event) {
  if (!s.fact_index_built) return;
  if (event.new_facts.size() != static_cast<size_t>(event.facts_added)) {
    // Uncollected delta over a possibly-indexed relation: the index can
    // no longer be trusted to cover the configuration — rebuild lazily.
    s.fact_index.clear();
    s.fact_index_built = false;
    return;
  }
  for (const auto& [rel, pos] : s.indexed_positions) {
    if (rel != event.relation) continue;
    for (const Fact& f : event.new_facts) {
      s.fact_index[RelPosValueKey{rel, pos, f.values[pos]}].push_back(f);
    }
  }
}

namespace {

bool ConstsMatch(const AtomGateConstraint& p, const Fact& f) {
  for (const auto& [pos, c] : p.required_consts) {
    if (f.values[pos] != c) return false;
  }
  return true;
}

}  // namespace

bool RelevanceStreamRegistry::RunSemijoinPlan(StreamState& s,
                                              const AtomGateConstraint& seed,
                                              const SemijoinPlan& plan,
                                              const ApplyEvent& event) {
  // Per-variable reachable-value sets (correlations dropped — sound
  // over-approximation) and per-slot candidate sets.
  std::unordered_map<VarId, std::unordered_set<Value, ValueHash>> vars;
  std::unordered_map<size_t, std::unordered_set<Value, ValueHash>> slots;
  size_t values = 0;
  size_t probes = 0;
  for (const Fact& f : event.new_facts) {
    if (!ConstsMatch(seed, f) || !RepeatsMatch(seed.free_vars, f)) continue;
    for (const auto& [pos, var] : seed.free_vars) {
      if (vars[var].insert(f.values[pos]).second) ++values;
    }
  }
  // Each variable is bound by exactly one step (or the seed) and only
  // consumed afterwards, so one pass in plan order sees every value a
  // current-configuration homomorphism could assign.
  for (const SemijoinStep& step : plan.steps) {
    auto lit = vars.find(step.lookup_var);
    if (lit == vars.end() || lit->second.empty()) continue;
    // Copy: a self-join step may derive into its own lookup variable.
    const std::vector<Value> lookups(lit->second.begin(), lit->second.end());
    for (const Value& lv : lookups) {
      auto fit = s.fact_index.find(
          RelPosValueKey{step.relation, step.lookup_pos, lv});
      if (fit == s.fact_index.end()) continue;
      for (const Fact& g : fit->second) {
        if (++probes > kChaseProbeCap) return false;
        bool ok = true;
        for (const auto& [pos, c] : step.consts) {
          if (g.values[pos] != c) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const auto& [pos, var] : step.known_vars) {
          auto vit = vars.find(var);
          if (vit == vars.end() ||
              vit->second.find(g.values[pos]) == vit->second.end()) {
            ok = false;
            break;
          }
        }
        if (!ok || !RepeatsMatch(step.derive_vars, g)) continue;
        for (const auto& [pos, var] : step.derive_vars) {
          if (vars[var].insert(g.values[pos]).second) ++values;
        }
        for (const auto& [pos, slot] : step.derive_slots) {
          if (slots[slot].insert(g.values[pos]).second) ++values;
        }
        if (values > kChaseValueCap) return false;
      }
    }
  }
  // A homomorphism using the landed fact at the seed must assign every
  // bounded slot a collected candidate; an empty candidate set means no
  // such homomorphism exists and nothing needs marking.
  const std::unordered_set<Value, ValueHash>* drive = nullptr;
  size_t drive_slot = 0;
  for (size_t slot : plan.bounded_slots) {
    auto it = slots.find(slot);
    if (it == slots.end() || it->second.empty()) return true;
    if (drive == nullptr || it->second.size() < drive->size()) {
      drive = &it->second;
      drive_slot = slot;
    }
  }
  if (drive == nullptr) return true;  // unreachable: bounded_slots checked
  for (const Value& v : *drive) {
    auto it =
        s.value_index.find(PosValueKey{static_cast<int>(drive_slot), v});
    if (it == s.value_index.end()) continue;
    for (uint32_t idx : it->second) {
      if (s.wave_touched[idx]) continue;
      const BindingState& b = s.bindings[idx];
      if (b.unsat || b.certain) continue;
      if (((b.disjunct_mask >> plan.disjunct) & 1) == 0) continue;
      bool member = true;
      for (size_t slot : plan.bounded_slots) {
        if (slot == drive_slot) continue;
        if (slots[slot].find(b.slot_values[slot]) == slots[slot].end()) {
          member = false;
          break;
        }
      }
      if (member) s.wave_touched[idx] = kTouchedSemijoin;
    }
  }
  return true;
}

bool RelevanceStreamRegistry::MarkTouchedBindings(StreamState& s,
                                                  const ApplyEvent& event,
                                                  bool adom_hit) {
  const RelationGate* gate = nullptr;
  for (const RelationGate& g : s.gates) {
    if (g.relation == event.relation) gate = &g;
  }
  // A non-Adom hit wave reaches here only for footprint relations (extras
  // imply the gate is unsupported), but stay conservative on a miss; an
  // Adom wave may legitimately carry a foreign relation (only the Adom
  // moved for this stream). Bail when the event's delta was not collected
  // (it always is while a listener is attached — belt and braces).
  if (event.new_facts.size() != static_cast<size_t>(event.facts_added)) {
    return false;
  }
  if (gate == nullptr && !adom_hit) return false;

  s.wave_touched.assign(s.bindings.size(), 0);
  bool free_hit = false;
  if (gate != nullptr && !event.new_facts.empty()) {
    // Slot-constrained atoms: a fact reaches a binding only when every
    // substituted position agrees, so the first slot position's value
    // picks the candidates out of the inverted index and the rest verify.
    for (const AtomGateConstraint& p : gate->slot_patterns) {
      for (const Fact& f : event.new_facts) {
        if (!ConstsMatch(p, f)) continue;
        const auto& [pos0, slot0] = p.required_slots[0];
        auto it = s.value_index.find(
            PosValueKey{static_cast<int>(slot0), f.values[pos0]});
        if (it == s.value_index.end()) continue;
        for (uint32_t idx : it->second) {
          if (s.wave_touched[idx]) continue;
          const BindingState& b = s.bindings[idx];
          if (((b.disjunct_mask >> p.disjunct) & 1) == 0) continue;
          bool slots_ok = true;
          for (const auto& [pos, slot] : p.required_slots) {
            if (b.slot_values[slot] != f.values[pos]) {
              slots_ok = false;
              break;
            }
          }
          if (slots_ok) s.wave_touched[idx] = kTouchedSlot;
        }
      }
    }
    // Constraint-free atoms: a matching fact unifies under *every*
    // binding, but the semijoin chase bounds which bindings' certainty it
    // can flip. Patterns without a slot-bounding plan (or whose chase
    // overflows) fall back to the whole unconstrained set.
    bool fallback_free = false;
    for (size_t pi = 0; pi < gate->free_patterns.size(); ++pi) {
      const AtomGateConstraint& p = gate->free_patterns[pi];
      bool pattern_hit = false;
      for (const Fact& f : event.new_facts) {
        if (ConstsMatch(p, f) && RepeatsMatch(p.free_vars, f)) {
          pattern_hit = true;
          break;
        }
      }
      if (!pattern_hit) continue;
      free_hit = true;
      const SemijoinPlan* plan =
          s.semijoin_supported && pi < gate->free_plans.size()
              ? &gate->free_plans[pi]
              : nullptr;
      if (plan == nullptr || plan->bounded_slots.empty() ||
          !RunSemijoinPlan(s, p, *plan, event)) {
        fallback_free = true;
      }
    }
    if (fallback_free) {
      for (uint32_t idx : gate->unconstrained_bindings) {
        if (!s.wave_touched[idx]) s.wave_touched[idx] = kTouchedFree;
      }
    }
  }
  // The irrelevant-uncertain residual: hypothetical response facts can
  // complete an IR chain no current-configuration index bounds, so a free
  // hit rechecks the irrelevant part of its unconstrained set and an Adom
  // wave (freshly minted accesses) rechecks every irrelevant-uncertain
  // binding. Relevant bindings are exempt — their pending witness stays
  // relevant under growth, leaving certainty (covered above) as the only
  // movable verdict.
  if (adom_hit) {
    for (size_t i = 0; i < s.bindings.size(); ++i) {
      const BindingState& b = s.bindings[i];
      if (s.wave_touched[i] == 0 && b.evaluated && !b.relevant &&
          !b.certain && !b.unsat) {
        s.wave_touched[i] = kTouchedResidual;
      }
    }
  } else if (free_hit && gate != nullptr) {
    for (uint32_t idx : gate->unconstrained_bindings) {
      const BindingState& b = s.bindings[idx];
      if (s.wave_touched[idx] == 0 && b.evaluated && !b.relevant &&
          !b.certain && !b.unsat) {
        s.wave_touched[idx] = kTouchedResidual;
      }
    }
  }
  return true;
}

bool RelevanceStreamRegistry::TryGateRestamp(
    const StreamState& s, BindingState& b, const ApplyEvent& event,
    uint64_t performed_after, const VersionStamp& fresh_stamp) const {
  if (!b.evaluated) return false;
  // Locate the hit relation's (version, performed) pair: gating implies
  // extras are empty, so the layout is the sorted footprint then the Adom
  // tail (one component per tracked domain, or the single global one).
  const std::vector<RelationId>& rels = b.footprint.relations;
  const size_t tail_base = 2 * rels.size();
  const auto it =
      std::lower_bound(rels.begin(), rels.end(), event.relation);
  size_t k = b.stamp.size();  // "no relation bracket"
  if (it != rels.end() && *it == event.relation) {
    k = 2 * static_cast<size_t>(it - rels.begin());
  } else if (s.wave_adom_pre.empty()) {
    // Not an Adom-delta wave and the binding's narrowed footprint misses
    // the hit relation: its staleness comes from some other apply.
    return false;
  }
  if (b.stamp.size() != fresh_stamp.size() || tail_base > b.stamp.size()) {
    return false;
  }
  // Stale by exactly this event: the hit components sit at the event's
  // pre-values and nothing else moved. A wider delta means other (not yet
  // waved, or concurrent) applies are folded in — evaluate instead of
  // reasoning about a delta we did not see.
  if (k < b.stamp.size()) {
    if (k + 1 >= tail_base) return false;
    const uint64_t pre_version =
        event.relation_version_after -
        static_cast<uint64_t>(event.facts_added);
    if (b.stamp[k] != pre_version || b.stamp[k + 1] != performed_after - 1) {
      return false;
    }
  }
  for (size_t j = 0; j < tail_base; ++j) {
    if (j == k || j == k + 1) continue;
    if (b.stamp[j] != fresh_stamp[j]) return false;
  }
  // Adom tail: components of domains this event grew must sit at the
  // event's pre-bracket; everything else must already be current.
  for (size_t j = tail_base; j < b.stamp.size(); ++j) {
    const size_t d = j - tail_base;
    const uint64_t pre =
        d < s.wave_adom_pre.size() ? s.wave_adom_pre[d] : kAdomUnmoved;
    if (pre == kAdomUnmoved) {
      if (b.stamp[j] != fresh_stamp[j]) return false;
    } else if (b.stamp[j] != pre) {
      return false;
    }
  }
  // Advance only by this event's delta: if a later apply already moved the
  // live versions further, the binding stays stale for that apply's wave.
  if (k < b.stamp.size()) {
    b.stamp[k] = event.relation_version_after;
    b.stamp[k + 1] = performed_after;
  }
  for (size_t j = tail_base; j < b.stamp.size(); ++j) {
    const size_t d = j - tail_base;
    if (d < s.wave_adom_pre.size() && s.wave_adom_pre[d] != kAdomUnmoved) {
      b.stamp[j] = s.wave_adom_post[d];
    }
  }
  return true;
}

std::shared_ptr<const std::vector<Access>>
RelevanceStreamRegistry::PendingSnapshot() {
  std::lock_guard<std::mutex> lock(pending_mu_);
  const uint64_t gen = pending_generation_.load(std::memory_order_acquire);
  if (pending_cache_ == nullptr || pending_cached_generation_ != gen) {
    pending_cache_ = std::make_shared<const std::vector<Access>>(
        engine_->PendingAccesses());
    pending_cached_generation_ = gen;
  }
  return pending_cache_;
}

void RelevanceStreamRegistry::RecheckWave(StreamState& s,
                                          size_t attribution_slot,
                                          const ApplyEvent* event,
                                          uint64_t performed_after,
                                          bool adom_hit) {
  const uint64_t wave_t0 = MonotonicNs();
  // The registration wave and every wave of a force_full_recheck stream
  // re-evaluate each stale binding without consulting the value gate.
  const bool full = event == nullptr || s.options.force_full_recheck;
  // Why this wave re-evaluated instead of value-gating (trace attribution;
  // mirrors the value_gate_fallback_* counter taxonomy).
  WaveFallbackReason wave_reason = WaveFallbackReason::kNone;
  if (full) {
    wave_reason = WaveFallbackReason::kForcedFull;
  } else if (adom_hit) {
    wave_reason = WaveFallbackReason::kAdomGrowth;
  } else if (!s.gate_supported && !s.extra_relations.empty()) {
    wave_reason = WaveFallbackReason::kDependentLtr;
  }
  // Every exit records wave duration/width and (sampled) one kWave event.
  auto record_wave = [&](uint64_t rechecked, uint64_t skipped_total) {
    EngineObservability& obs = engine_->obs();
    const uint64_t ns = MonotonicNs() - wave_t0;
    obs.wave_ns.Record(ns);
    obs.wave_width.Record(rechecked);
    if (obs.trace().ShouldSample()) {
      TraceEvent e;
      e.kind = TraceEventKind::kWave;
      e.detail = static_cast<uint8_t>(wave_reason);
      e.id = static_cast<uint32_t>(attribution_slot);
      e.id2 = s.id;
      e.a = rechecked;
      e.b = skipped_total;
      e.ns = ns;
      obs.trace().Record(e);
    }
  };

  std::vector<size_t>& stale = s.wave_stale;
  std::vector<VersionStamp>& stamps = s.wave_stamps;  // pre-read, reused
  stale.clear();
  stamps.clear();

  // The value gate applies when the landed delta bounds what any binding
  // could have observed: a gate-supported stream, and — for Adom-growing
  // applies — a semijoin-supported (IR-only) stream with the event's
  // per-domain version brackets available.
  bool gated = false;
  s.wave_adom_pre.clear();
  s.wave_adom_post.clear();
  if (!full) {
    if (adom_hit) {
      if (s.semijoin_supported && !event->grown_domains.empty() &&
          !event->adom_versions_after.empty() && !event->new_adom.empty()) {
        s.wave_adom_pre.assign(s.adom_domains.size(), kAdomUnmoved);
        s.wave_adom_post.assign(s.adom_domains.size(), kAdomUnmoved);
        bool brackets_ok = true;
        for (size_t d = 0; d < s.adom_domains.size(); ++d) {
          const DomainId dom = s.adom_domains[d];
          if (!std::binary_search(event->grown_domains.begin(),
                                  event->grown_domains.end(), dom)) {
            continue;
          }
          const uint64_t post =
              dom < event->adom_versions_after.size()
                  ? event->adom_versions_after[dom]
                  : 0;
          uint64_t minted = 0;
          for (const TypedValue& tv : event->new_adom) {
            if (tv.domain == dom) ++minted;
          }
          if (minted == 0 || minted > post) {
            brackets_ok = false;  // delta incomplete: no bracket to trust
            break;
          }
          s.wave_adom_pre[d] = post - minted;
          s.wave_adom_post[d] = post;
        }
        if (brackets_ok) {
          EnsureGateIndex(s);
          EnsureFactIndex(s);
          gated = MarkTouchedBindings(s, *event, /*adom_hit=*/true);
        }
        if (gated) {
          wave_reason = WaveFallbackReason::kAdomDelta;
        } else {
          s.wave_adom_pre.clear();
          s.wave_adom_post.clear();
        }
      }
    } else if (s.gate_supported) {
      EnsureGateIndex(s);
      if (s.semijoin_supported) EnsureFactIndex(s);
      gated = MarkTouchedBindings(s, *event, /*adom_hit=*/false);
    }
  }

  uint64_t skipped = 0;
  uint64_t sticky = 0;
  uint64_t gate_skipped = 0;
  uint64_t unconstrained_rechecks = 0;
  uint64_t semijoin_rechecks = 0;
  uint64_t residual_rechecks = 0;
  uint64_t newborn_rechecks = 0;
  for (size_t i = 0; i < s.bindings.size(); ++i) {
    BindingState& b = s.bindings[i];
    if (b.unsat || b.certain) {
      ++sticky;  // monotone-final: never looked at again
      continue;
    }
    VersionStamp stamp = StampFor(s, b);
    if (event != nullptr && b.evaluated && b.stamp == stamp) {
      ++skipped;
      continue;
    }
    if (gated && !s.wave_touched[i] &&
        !(b.has_witness && b.witness == event->access) &&
        TryGateRestamp(s, b, *event, performed_after, stamp)) {
      ++gate_skipped;
      continue;
    }
    if (gated) {
      if (!b.evaluated) {
        ++newborn_rechecks;  // minted by this wave's delta enumeration
      } else if (s.wave_touched[i] == kTouchedFree) {
        ++unconstrained_rechecks;
      } else if (s.wave_touched[i] == kTouchedSemijoin) {
        ++semijoin_rechecks;
      } else if (s.wave_touched[i] == kTouchedResidual) {
        ++residual_rechecks;
      }
    }
    stale.push_back(i);
    stamps.push_back(std::move(stamp));
  }
  if (skipped > 0) counters_.Bump(counters_.stream_skips, skipped);
  if (sticky > 0) counters_.Bump(counters_.stream_sticky_skips, sticky);
  if (gate_skipped > 0) {
    counters_.Bump(counters_.stream_value_gate_skips, gate_skipped);
  }
  if (semijoin_rechecks > 0) {
    counters_.Bump(counters_.stream_value_gate_semijoin,
                   semijoin_rechecks);
  }
  if (newborn_rechecks > 0) {
    counters_.Bump(counters_.stream_value_gate_newborn, newborn_rechecks);
  }
  // Residual rechecks are fallback pressure: attribute them to the event
  // channel that forced them (freshly minted accesses on Adom waves, the
  // unconstrained free hit otherwise).
  if (adom_hit && residual_rechecks > 0) {
    counters_.Bump(counters_.stream_value_gate_fallback_adom,
                   residual_rechecks);
  }
  if (unconstrained_rechecks + (adom_hit ? 0 : residual_rechecks) > 0) {
    counters_.Bump(counters_.stream_value_gate_fallback_unconstrained,
                   unconstrained_rechecks +
                       (adom_hit ? 0 : residual_rechecks));
  }
  if (stale.empty()) {
    record_wave(0, skipped + sticky + gate_skipped);
    return;
  }
  if (!full && !gated) {
    if (adom_hit) {
      counters_.Bump(counters_.stream_value_gate_fallback_adom,
                     static_cast<uint64_t>(stale.size()));
    } else if (!s.gate_supported && !s.extra_relations.empty()) {
      counters_.Bump(counters_.stream_value_gate_fallback_dependent_ltr,
                     static_cast<uint64_t>(stale.size()));
    }
  }
  counters_.Bump(counters_.stream_rechecks,
                 static_cast<uint64_t>(stale.size()));
  rechecks_by_relation_[attribution_slot].fetch_add(
      stale.size(), std::memory_order_relaxed);

  const std::shared_ptr<const std::vector<Access>> pending_snapshot =
      PendingSnapshot();
  const std::vector<Access>& pending = *pending_snapshot;
  // One decision path, on this thread: EvalBinding decides every stale
  // binding, its witness-first scan confirming a still-relevant witness
  // in one probe. The hold on s.mu keeps Poll/Snapshot (and other waves)
  // out until the whole wave lands.
  for (size_t j = 0; j < stale.size(); ++j) {
    CommitEvents(s, EvalBinding(s, s.bindings[stale[j]], pending,
                                std::move(stamps[j])));
  }
  record_wave(static_cast<uint64_t>(stale.size()),
              skipped + sticky + gate_skipped);
}

void RelevanceStreamRegistry::OnApply(const ApplyEvent& event) {
  // Generation first, performed counter second (release): a wave whose
  // stamps saw the performed bump re-reads the generation afterwards
  // (acquire) and is forced to refresh the pending cache — see
  // PendingSnapshot.
  pending_generation_.fetch_add(1, std::memory_order_relaxed);
  uint64_t performed_after = 0;
  if (event.relation < num_relations_) {
    performed_after = performed_by_relation_[event.relation].fetch_add(
                          1, std::memory_order_release) +
                      1;
  }
  std::vector<StreamState*> streams;
  {
    std::shared_lock<std::shared_mutex> lock(streams_mu_);
    streams.reserve(streams_.size());
    for (const auto& s : streams_) streams.push_back(s.get());
  }
  for (StreamState* sp : streams) {
    StreamState& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.defunct) continue;
    // Adom growth hits a per-domain stream only when some grown domain is
    // one it tracks: foreign-domain growth mints neither bindings (head
    // domains are tracked) nor frontier accesses its IR verdicts can see
    // (dependent-method input domains over footprint relations are too).
    bool adom_hit = event.adom_grew;
    if (adom_hit && s.per_domain_adom && !event.grown_domains.empty()) {
      adom_hit = false;
      for (DomainId d : event.grown_domains) {
        if (std::binary_search(s.adom_domains.begin(), s.adom_domains.end(),
                               d)) {
          adom_hit = true;
          break;
        }
      }
    }
    const bool hit =
        adom_hit || s.query_footprint.Contains(event.relation) ||
        std::binary_search(s.extra_relations.begin(),
                           s.extra_relations.end(), event.relation);
    if (!hit) {
      // O(1) stream-level skip: nothing this stream's bindings read (facts,
      // frontier, Adom) changed.
      const uint64_t settled = s.num_certain + s.num_unsat;
      counters_.Bump(counters_.stream_skips, s.bindings.size() - settled);
      if (settled > 0) counters_.Bump(counters_.stream_sticky_skips, settled);
      continue;
    }
    // Keep the secondary fact index a faithful delta mirror *before* the
    // wave's chase reads it.
    if (s.semijoin_supported) AppendFactsToIndex(s, event);
    // New Adom values mint new head bindings; enumerate exactly those.
    // (A failure here means a binding query failed engine validation,
    // which a validated stream query cannot produce.)
    if (adom_hit) (void)ExtendBindings(s);
    RecheckWave(s, event.relation < num_relations_ ? event.relation
                                                   : num_relations_,
                &event, performed_after, adom_hit);
  }
}

void RelevanceStreamRegistry::ContributeStats(EngineStats* stats) const {
  counters_.FoldInto(stats);
  if (stats->stream_rechecks_by_relation.size() < num_relations_ + 1) {
    stats->stream_rechecks_by_relation.resize(num_relations_ + 1, 0);
  }
  for (size_t r = 0; r <= num_relations_; ++r) {
    stats->stream_rechecks_by_relation[r] +=
        rechecks_by_relation_[r].load(std::memory_order_relaxed);
  }
}

StreamDelta RelevanceStreamRegistry::Poll(StreamId id) {
  const SubscriptionRef ref = subscription(id);
  if (ref.stream == nullptr) return StreamDelta{};
  std::lock_guard<std::mutex> lock(ref.stream->mu);
  return PollLocked(*ref.stream, *ref.sub);
}

Result<StreamDelta> RelevanceStreamRegistry::PollAfter(StreamId id,
                                                       uint64_t cursor,
                                                       PollState* state) {
  PollState ignored;
  if (state == nullptr) state = &ignored;
  *state = PollState{};
  const SubscriptionRef ref = subscription(id);
  if (ref.stream == nullptr) return StreamDelta{};
  StreamState& s = *ref.stream;
  Subscription& sub = *ref.sub;
  // The horizon test and the poll share one hold of `s.mu`: a wave landing
  // between them could evict past `cursor`, and the poll would then hand
  // out events from the new horizon on — a gap with no kCursorEvicted.
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.options.retain_events) {
    const uint64_t horizon = Horizon(s, sub);
    if (cursor < horizon) {
      // The retention cap dropped events past this cursor: the gap
      // cannot be filled. The subscriber must re-Snapshot for current
      // state, then resume from the eviction horizon.
      state->evicted_through = horizon;
      return Status::FailedPrecondition(
          "cursor evicted: retention cap dropped events through sequence " +
          std::to_string(horizon) + " (cursor " + std::to_string(cursor) +
          "); re-snapshot and resume from there");
    }
    if (cursor < sub.delivered) sub.delivered = cursor;
  }
  StreamDelta delta = PollLocked(s, sub);
  state->retained = RetainedLocked(s, sub);
  return delta;
}

Status RelevanceStreamRegistry::Acknowledge(StreamId id, uint64_t upto) {
  const SubscriptionRef ref = subscription(id);
  if (ref.stream == nullptr) return Status::NotFound("no such stream");
  StreamState& s = *ref.stream;
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.options.retain_events) {
    return Status::FailedPrecondition(
        "stream does not retain events (StreamOptions::retain_events)");
  }
  Subscription& sub = *ref.sub;
  const uint64_t last = OwnLast(s, sub);
  if (upto > last) {
    // An ack past the last emitted event would push the cursor into the
    // future — events emitted later with sequence <= upto would silently
    // never be delivered, and the bogus cursor would be persisted.
    return Status::InvalidArgument(
        "acknowledge beyond last emitted event (upto " +
        std::to_string(upto) + ", last emitted " + std::to_string(last) +
        ")");
  }
  if (upto <= sub.acked) return Status::OK();
  SetAcked(s, sub, upto);
  TrimPrefix(sub, std::max(upto, sub.evicted));
  TrimLog(s);
  return Status::OK();
}

Result<RelevanceStreamRegistry::StreamPersistState>
RelevanceStreamRegistry::DumpPersistState(StreamId id) const {
  const SubscriptionRef ref = subscription(id);
  if (ref.stream == nullptr) return Status::NotFound("no such stream");
  StreamState& s = *ref.stream;
  std::lock_guard<std::mutex> lock(s.mu);
  Subscription& sub = *ref.sub;
  StreamPersistState ps;
  ps.query = s.query;
  ps.options = s.options;
  ps.fresh_pool = s.inst.fresh_constants();
  const uint64_t last = OwnLast(s, sub);
  const uint64_t horizon = Horizon(s, sub);
  ps.next_sequence = last + 1;
  ps.acked_sequence = sub.acked;
  ps.evicted_through = horizon;
  EmitRange(s, sub, std::max(sub.acked, horizon), last, /*consume=*/false,
            /*move_through=*/0, &ps.retained_events);
  return ps;
}

StreamSnapshot RelevanceStreamRegistry::Snapshot(StreamId id) const {
  StreamSnapshot snap;
  StreamState* s = stream(id);
  if (s == nullptr) return snap;
  std::lock_guard<std::mutex> lock(s->mu);
  snap.bindings_tracked = s->bindings.size();
  snap.certain = s->num_certain;
  snap.relevant = s->num_relevant;
  snap.any_relevant = s->num_relevant > 0;
  snap.bindings.reserve(s->bindings.size());
  for (const BindingState& b : s->bindings) {
    snap.bindings.push_back(MakeBindingView(b));
  }
  return snap;
}

bool RelevanceStreamRegistry::AnyRelevant(StreamId id) const {
  StreamState* s = stream(id);
  if (s == nullptr) return false;
  std::lock_guard<std::mutex> lock(s->mu);
  return s->num_relevant > 0;
}

std::vector<BindingView> RelevanceStreamRegistry::RelevantBindings(
    StreamId id) const {
  std::vector<BindingView> out;
  StreamState* s = stream(id);
  if (s == nullptr) return out;
  std::lock_guard<std::mutex> lock(s->mu);
  for (const BindingState& b : s->bindings) {
    if (b.relevant) out.push_back(MakeBindingView(b));
  }
  return out;
}

size_t RelevanceStreamRegistry::RetainedCount(StreamId id) const {
  const SubscriptionRef ref = subscription(id);
  if (ref.stream == nullptr) return 0;
  std::lock_guard<std::mutex> lock(ref.stream->mu);
  return RetainedLocked(*ref.stream, *ref.sub);
}

uint64_t RelevanceStreamRegistry::EvictedThrough(StreamId id) const {
  const SubscriptionRef ref = subscription(id);
  if (ref.stream == nullptr) return 0;
  std::lock_guard<std::mutex> lock(ref.stream->mu);
  return Horizon(*ref.stream, *ref.sub);
}

}  // namespace rar
