#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "relational/overlay.h"

namespace rar {

namespace {

// The IR search's buffers, one set per thread: every check a thread runs
// reuses them, so the search allocates nothing once they have grown. A
// check never runs another check on its thread (the deciders do not call
// back into the engine), so one set suffices.
IrScratch* ThreadIrScratch() {
  thread_local IrScratch scratch;
  return &scratch;
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (hw > 8) hw = 8;
  return static_cast<int>(hw);
}

}  // namespace

/// RAII gauge used by the overlap telemetry.
class RelevanceEngine::ActivityScope {
 public:
  explicit ActivityScope(std::atomic<int>* gauge) : gauge_(gauge) {
    gauge_->fetch_add(1, std::memory_order_relaxed);
  }
  ~ActivityScope() { gauge_->fetch_sub(1, std::memory_order_relaxed); }

 private:
  std::atomic<int>* gauge_;
};

RelevanceEngine::RelevanceEngine(const Schema& schema,
                                 const AccessMethodSet& acs,
                                 Configuration initial, EngineOptions options)
    : schema_(schema),
      acs_(acs),
      options_(std::move(options)),
      analyzer_(schema, acs),
      num_relations_(schema.num_relations()),
      num_domains_(schema.num_domains()),
      stripe_count_(std::clamp<size_t>(num_relations_, 1, 64)),
      stripe_mu_(stripe_count_),
      conf_(std::move(initial)),
      frontier_(schema, acs),
      cache_(options_.cache_capacity),
      obs_(options_.obs),
      pool_(ResolveThreads(options_.num_threads)) {
  // Before the first Submit spawns any worker: the pool reads the pointer
  // from its threads.
  pool_.set_queue_wait_histogram(&obs_.queue_wait_ns);
  // Freeze the store layout: after this, growing relation R never
  // reallocates another relation's store, which is what the striped locks
  // rely on.
  conf_.ReserveRelations(num_relations_);
  rel_versions_ = std::make_unique<std::atomic<uint64_t>[]>(
      std::max<size_t>(num_relations_, 1));
  for (size_t r = 0; r < num_relations_; ++r) {
    rel_versions_[r].store(conf_.relation_version(static_cast<RelationId>(r)),
                           std::memory_order_relaxed);
  }
  adom_version_.store(conf_.adom_version(), std::memory_order_relaxed);
  adom_domain_versions_ = std::make_unique<std::atomic<uint64_t>[]>(
      std::max<size_t>(num_domains_, 1));
  for (size_t d = 0; d < num_domains_; ++d) {
    adom_domain_versions_[d].store(
        conf_.adom_domain_version(static_cast<DomainId>(d)),
        std::memory_order_relaxed);
  }
  method_stripes_.reserve(acs_.size());
  for (AccessMethodId mid = 0; mid < acs_.size(); ++mid) {
    method_stripes_.push_back(StripeBit(acs_.method(mid).relation));
    method_relation_stripes_ |= method_stripes_.back();
  }
  invalidations_by_relation_ =
      std::make_unique<std::atomic<uint64_t>[]>(num_relations_ + 1);
  for (size_t r = 0; r <= num_relations_; ++r) {
    invalidations_by_relation_[r].store(0, std::memory_order_relaxed);
  }
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  std::lock_guard<std::mutex> fl(frontier_mu_);
  frontier_.Sync(conf_);
}

Result<QueryId> RelevanceEngine::RegisterQuery(const UnionQuery& query) {
  if (!query.IsBoolean()) {
    return Status::InvalidArgument(
        "RelevanceEngine serves Boolean queries; lift k-ary queries via "
        "RelevanceAnalyzer (Prop 2.2) before registering");
  }
  auto state = std::make_unique<QueryState>();
  state->query = query;
  RAR_RETURN_NOT_OK(state->query.Validate(schema_));
  state->footprint = RelationFootprint::Of(state->query);
  for (RelationId rel : state->footprint.relations) {
    state->ir_stripes |= StripeBit(rel);
  }
  // With dependent methods in play, the LTR containment searches probe
  // Contains() on any relation that has a method (auxiliary production
  // facts of the witness chase), so those relations join the *lock*
  // footprint. The verdict's cache stamp stays semantically footprint-
  // narrow either way; with an all-independent ACS the lock footprint is
  // exactly the semantic one.
  state->ltr_stripes =
      state->ir_stripes |
      (acs_.AllIndependent() ? uint64_t{0} : method_relation_stripes_);
  state->seeds = QueryConstants(state->query, schema_);
  // Exclusive state lock: checks on already-registered ids read queries_
  // under the shared lock, and push_back may reallocate the vector.
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  queries_.push_back(std::move(state));
  num_queries_.store(queries_.size(), std::memory_order_release);
  return static_cast<QueryId>(queries_.size() - 1);
}

VersionVector RelevanceEngine::versions() const {
  VersionVector v;
  v.relations.reserve(num_relations_);
  for (size_t r = 0; r < num_relations_; ++r) {
    v.relations.push_back(rel_versions_[r].load(std::memory_order_acquire));
  }
  v.adom = adom_version_.load(std::memory_order_acquire);
  v.adom_domains.reserve(num_domains_);
  for (size_t d = 0; d < num_domains_; ++d) {
    v.adom_domains.push_back(
        adom_domain_versions_[d].load(std::memory_order_acquire));
  }
  return v;
}

Configuration RelevanceEngine::SnapshotConfig() const {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return conf_;
}

Status RelevanceEngine::ValidateAccess(const Access& access) const {
  std::shared_lock<std::shared_mutex> state(state_mu_);
  std::shared_lock<std::shared_mutex> adom(adom_mu_);
  return CheckWellFormed(conf_, acs_, access);
}

Result<int> RelevanceEngine::ApplyResponse(const Access& access,
                                           const std::vector<Fact>& response) {
  const uint64_t apply_t0 = MonotonicNs();
  // Admission control: bound outstanding apply waves. The gauge counts
  // applies from entry to listener completion (listeners run the stream
  // recheck waves, which is where an overloaded engine actually drowns),
  // so the serving layer can bounce excess appliers with a typed
  // retry-after instead of queueing unboundedly on the stripe locks.
  if (options_.max_inflight_applies > 0) {
    const int limit = static_cast<int>(options_.max_inflight_applies);
    int inflight = inflight_applies_.load(std::memory_order_relaxed);
    do {
      if (inflight >= limit) {
        counters_.Bump(counters_.apply_admission_rejections);
        return Status::ResourceExhausted(
            "apply admission: " + std::to_string(limit) +
            " applies already in flight; retry later");
      }
    } while (!inflight_applies_.compare_exchange_weak(
        inflight, inflight + 1, std::memory_order_relaxed));
  } else {
    inflight_applies_.fetch_add(1, std::memory_order_relaxed);
  }
  struct InflightGuard {
    std::atomic<int>* gauge;
    ~InflightGuard() { gauge->fetch_sub(1, std::memory_order_relaxed); }
  } inflight_guard{&inflight_applies_};
  ApplyEvent event;
  event.access = access;
  // Guarded lookup: the access is only validated inside the locked
  // section below (CheckWellFormed rejects unknown method ids cleanly).
  if (access.method < acs_.size()) {
    event.relation = acs_.method(access.method).relation;
  }
  // The landed delta only feeds listener maintenance; with nobody
  // attached, don't copy facts around for it.
  const bool collect =
      num_listeners_.load(std::memory_order_relaxed) > 0;
  Result<int> applied = [&]() -> Result<int> {
    ActivityScope applying(&active_applies_);
    std::shared_lock<std::shared_mutex> state(state_mu_);
    counters_.Bump(counters_.responses_applied);
    if (active_checks_.load(std::memory_order_relaxed) > 0) {
      counters_.Bump(counters_.overlapped_applies);
    }
    {
      std::shared_lock<std::shared_mutex> adom(adom_mu_);
      RAR_RETURN_NOT_OK(CheckWellFormed(conf_, acs_, access));
      RAR_RETURN_NOT_OK(ValidateResponse(acs_, access, response));
      bool grows_adom = false;
      for (const Fact& f : response) {
        const Relation& rel = schema_.relation(f.relation);
        for (int pos = 0; pos < f.arity() && !grows_adom; ++pos) {
          grows_adom = !conf_.AdomContains(f.values[pos],
                                           rel.attributes[pos].domain);
        }
        if (grows_adom) break;
      }
      // Monotone upgrade rule: "no new Adom entries" can never become
      // false while we hold the shared lock, so the common case (all
      // values already known) applies under the *shared* Adom lock and
      // overlaps with every in-flight check.
      if (!grows_adom) return ApplyLocked(access, response, &event, collect);
    }
    // The response introduces values: retake the Adom lock exclusively
    // (the one global serialization point — everything Adom-dependent
    // must not observe the growth mid-check).
    std::unique_lock<std::shared_mutex> adom(adom_mu_);
    return ApplyLocked(access, response, &event, collect);
  }();
  // Listeners run with every engine lock released: they may call back
  // into the engine (checks, certainty, query registration) freely.
  if (applied.ok()) {
    event.facts_added = *applied;
    // Durability before visibility: listeners (and through them stream
    // subscribers) must never observe an apply that a crash could undo —
    // recovered cursors would have a gap. On a log failure the in-memory
    // apply stands but the commit is reported failed; the session is
    // effectively dead (the WAL error is sticky).
    if (persist_hook_ != nullptr && event.wal_sequence != 0) {
      RAR_RETURN_NOT_OK(persist_hook_->WaitDurable(event.wal_sequence));
    }
    NotifyApplied(event);
    // End-to-end: locks + absorb + listener maintenance (wave time also
    // shows up on its own in wave_ns, attributed per stream).
    const uint64_t ns = MonotonicNs() - apply_t0;
    obs_.apply_ns.Record(ns);
    if (obs_.trace().ShouldSample()) {
      TraceEvent e;
      e.kind = TraceEventKind::kApply;
      e.id = event.relation;
      e.id2 = static_cast<uint32_t>(event.facts_added);
      e.a = event.relation_version_after;
      e.b = event.relation_version_after -
            static_cast<uint64_t>(event.facts_added);
      e.flag_a = event.adom_grew;
      e.ns = ns;
      obs_.trace().Record(e);
    }
  }
  return applied;
}

Result<int> RelevanceEngine::ApplyLocked(const Access& access,
                                         const std::vector<Fact>& response,
                                         ApplyEvent* event,
                                         bool collect_delta) {
  const RelationId rel = acs_.method(access.method).relation;
  const Relation& rel_schema = schema_.relation(rel);
  int added = 0;
  {
    std::unique_lock<std::shared_mutex> stripe(stripe_mu_[StripeOf(rel)]);
    for (const Fact& f : response) {
      if (collect_delta) {
        // Probe the active domain *before* the insert so the delta records
        // exactly the entries this fact introduces (duplicates within the
        // response resolve in arrival order, like the inserts themselves).
        for (int pos = 0; pos < f.arity(); ++pos) {
          const DomainId dom = rel_schema.attributes[pos].domain;
          if (!conf_.AdomContains(f.values[pos], dom)) {
            event->new_adom.push_back(TypedValue{f.values[pos], dom});
          }
        }
        if (conf_.AddFact(f)) {
          ++added;
          event->new_facts.push_back(f);
        }
      } else if (conf_.AddFact(f)) {
        ++added;
      }
    }
    if (added > 0) {
      rel_versions_[rel].store(conf_.relation_version(rel),
                               std::memory_order_release);
      epoch_.fetch_add(1, std::memory_order_acq_rel);
      counters_.Bump(counters_.epoch_advances);
      counters_.Bump(counters_.facts_applied, static_cast<uint64_t>(added));
    }
    event->relation_version_after = conf_.relation_version(rel);
    // WAL ordering: the sequence is assigned while the stripe (and the
    // Adom lock) are still held, so log order agrees with every
    // serialization the engine's locks admit. Redundant responses are
    // logged too — they still mark the access performed below.
    if (persist_hook_ != nullptr) {
      event->wal_sequence = persist_hook_->LogApply(access, response);
    }
  }
  // Only true when the caller holds adom_mu_ exclusive (the pre-scan is
  // monotone-stable), so the version store and frontier sync below are
  // writer-safe.
  const uint64_t adom_now = conf_.adom_version();
  const bool adom_grew =
      adom_now != adom_version_.load(std::memory_order_relaxed);
  event->adom_grew = adom_grew;
  event->adom_version_after = adom_now;
  if (adom_grew) {
    adom_version_.store(adom_now, std::memory_order_release);
    // Advance the per-domain mirrors and record which domains grew (the
    // domain count is small and static, so a full sweep is cheaper than
    // threading domain ids through the insert loop above).
    event->adom_versions_after.resize(num_domains_);
    for (size_t d = 0; d < num_domains_; ++d) {
      const uint64_t now =
          conf_.adom_domain_version(static_cast<DomainId>(d));
      if (now !=
          adom_domain_versions_[d].load(std::memory_order_relaxed)) {
        adom_domain_versions_[d].store(now, std::memory_order_release);
        event->grown_domains.push_back(static_cast<DomainId>(d));
      }
      event->adom_versions_after[d] = now;
    }
    counters_.Bump(counters_.adom_advances);
  }
  {
    std::lock_guard<std::mutex> fl(frontier_mu_);
    frontier_.MarkPerformed(access);
    // The frontier enumerates bindings over the typed active domain, so it
    // only moves when Adom does (and then we hold adom_mu_ exclusive —
    // Sync's Adom reads are safe).
    if (adom_grew) frontier_.Sync(conf_);
  }
  return added;
}

void RelevanceEngine::AddApplyListener(ApplyListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.push_back(listener);
  num_listeners_.store(listeners_.size(), std::memory_order_relaxed);
}

void RelevanceEngine::RemoveApplyListener(ApplyListener* listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
  num_listeners_.store(listeners_.size(), std::memory_order_relaxed);
}

void RelevanceEngine::NotifyApplied(const ApplyEvent& event) {
  std::vector<ApplyListener*> listeners;
  {
    std::lock_guard<std::mutex> lock(listeners_mu_);
    if (listeners_.empty()) return;
    listeners = listeners_;
  }
  for (ApplyListener* l : listeners) l->OnApply(event);
}

std::vector<Value> RelevanceEngine::AdomValuesOf(DomainId domain,
                                                 size_t from) const {
  std::shared_lock<std::shared_mutex> state(state_mu_);
  std::shared_lock<std::shared_mutex> adom(adom_mu_);
  ValueSeq seq = conf_.AdomOfDomain(domain);
  std::vector<Value> out;
  if (from >= seq.size()) return out;
  out.reserve(seq.size() - from);
  for (size_t i = from; i < seq.size(); ++i) out.push_back(seq[i]);
  return out;
}

std::vector<Fact> RelevanceEngine::RelationFactsSnapshot(
    RelationId rel) const {
  std::shared_lock<std::shared_mutex> state(state_mu_);
  if (rel >= num_relations_) return {};
  std::shared_lock<std::shared_mutex> stripe(stripe_mu_[StripeOf(rel)]);
  FactSeq seq = conf_.FactsOf(rel);
  std::vector<Fact> out;
  out.reserve(seq.size());
  for (size_t i = 0; i < seq.size(); ++i) out.push_back(seq[i]);
  return out;
}

const ConfigView& RelevanceEngine::SeededViewLocked(
    const QueryState& qs, OverlayConfiguration* overlay) const {
  bool missing = false;
  for (const TypedValue& tv : qs.seeds) {
    if (!conf_.AdomContains(tv.value, tv.domain)) {
      missing = true;
      break;
    }
  }
  if (!missing) return conf_;
  for (const TypedValue& tv : qs.seeds) {
    overlay->AddSeedConstant(tv.value, tv.domain);
  }
  return *overlay;
}

class RelevanceEngine::LiveStamp {
 public:
  /// The stamp of `fp`'s relations with `accessed` merged in (kInvalidId:
  /// none), then the Adom version iff `adom_sensitive`. `fp` must outlive
  /// it. (A query footprint never carries per-domain Adom refinements.)
  LiveStamp(const RelevanceEngine& engine, const RelationFootprint& fp,
            RelationId accessed, bool adom_sensitive)
      : engine_(engine), fp_(fp),
        global_(!engine.options_.footprint_invalidation) {
    if (global_) {
      size_ = 1;
      return;
    }
    num_relations_ = fp.relations.size();
    if (accessed != kInvalidId) {
      auto it = std::lower_bound(fp.relations.begin(), fp.relations.end(),
                                 accessed);
      if (it == fp.relations.end() || *it != accessed) {
        accessed_ = accessed;
        merged_at_ = static_cast<size_t>(it - fp.relations.begin());
        ++num_relations_;
      }
    }
    size_ = num_relations_ + (adom_sensitive ? 1 : 0);
  }

  size_t size() const { return size_; }

  uint64_t operator[](size_t i) const {
    if (global_) return engine_.epoch();
    if (i < num_relations_) return engine_.relation_version(RelationAt(i));
    return engine_.adom_version();
  }

  /// The relation a stale component stands for; the Adom slot (which
  /// doubles as "global" attribution in global-epoch mode) is reported
  /// as the engine's relation count.
  size_t Target(int component) const {
    if (global_ || component < 0 ||
        static_cast<size_t>(component) >= num_relations_) {
      return engine_.num_relations_;
    }
    return RelationAt(static_cast<size_t>(component));
  }

  /// True when `memo` holds exactly this stamp's components.
  bool Equals(const VersionStamp& memo) const {
    if (memo.size() != size_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (memo[i] != (*this)[i]) return false;
    }
    return true;
  }

  /// Overwrites `memo` with this stamp's components (in place: a memo of
  /// the same length is not reallocated).
  void CopyTo(VersionStamp* memo) const {
    memo->resize(size_);
    for (size_t i = 0; i < size_; ++i) (*memo)[i] = (*this)[i];
  }

 private:
  RelationId RelationAt(size_t i) const {
    if (accessed_ == kInvalidId || i < merged_at_) return fp_.relations[i];
    return i == merged_at_ ? accessed_ : fp_.relations[i - 1];
  }

  const RelevanceEngine& engine_;
  const RelationFootprint& fp_;
  const bool global_;
  RelationId accessed_ = kInvalidId;  ///< merged in; kInvalidId: none
  size_t merged_at_ = 0;
  size_t num_relations_ = 0;  ///< relation components
  size_t size_ = 0;
};

class RelevanceEngine::SharedStripes {
 public:
  SharedStripes() = default;
  SharedStripes(const RelevanceEngine& engine, uint64_t mask) {
    Lock(engine, mask);
  }
  SharedStripes(const SharedStripes&) = delete;
  SharedStripes& operator=(const SharedStripes&) = delete;
  ~SharedStripes() {
    for (uint64_t m = mask_; m != 0; m &= m - 1) {
      stripes_[__builtin_ctzll(m)].unlock_shared();
    }
  }

  /// Locks the mask's stripes shared, lowest stripe first (lock order).
  /// At most once per object.
  void Lock(const RelevanceEngine& engine, uint64_t mask) {
    stripes_ = engine.stripe_mu_.data();
    mask_ = mask;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      stripes_[__builtin_ctzll(m)].lock_shared();
    }
  }

 private:
  std::shared_mutex* stripes_ = nullptr;
  uint64_t mask_ = 0;
};

bool RelevanceEngine::CertainLocked(QueryId id) {
  // Caller holds the query-footprint stripes (shared or exclusive);
  // serialize the memo update.
  std::lock_guard<std::mutex> lock(memo_mu_);
  QueryState& qs = *queries_[id];
  if (qs.certain) {
    counters_.Bump(counters_.certainty_reuse);
    return true;
  }
  const LiveStamp stamp(*this, qs.footprint, kInvalidId,
                        qs.footprint.adom_sensitive);
  if (qs.checked_valid && stamp.Equals(qs.checked_stamp)) {
    counters_.Bump(counters_.certainty_reuse);
    return false;
  }
  qs.certain = EvalBoolIndexed(qs.query, conf_, ThreadIrScratch());
  stamp.CopyTo(&qs.checked_stamp);
  qs.checked_valid = true;
  return qs.certain;
}

bool RelevanceEngine::AchievableLocked(QueryId id, const ConfigView& view) {
  QueryState& qs = *queries_[id];
  if (qs.achievable.load(std::memory_order_acquire)) {
    counters_.Bump(counters_.achievable_reuse);
    return true;
  }
  // The search reads the query's relations and the active domain; its
  // probes of other method relations ask only about facts carrying a
  // fresh or missing value (DESIGN.md "The achievability memo").
  const LiveStamp stamp(*this, qs.footprint, kInvalidId,
                        /*adom_sensitive=*/true);
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (qs.unachievable_valid && stamp.Equals(qs.unachievable_stamp)) {
      return false;
    }
  }
  const Result<bool> found = analyzer_.Achievable(view, qs.query,
                                                  options_.relevance);
  if (found.ok() && *found) {
    qs.achievable.store(true, std::memory_order_release);
    return true;
  }
  // An error stores nothing: the full search runs and reports it.
  if (found.ok()) {
    std::lock_guard<std::mutex> lock(memo_mu_);
    stamp.CopyTo(&qs.unachievable_stamp);
    qs.unachievable_valid = true;
  }
  return false;
}

bool RelevanceEngine::IsCertain(QueryId id) {
  std::shared_lock<std::shared_mutex> state(state_mu_);
  SharedStripes stripes(*this, queries_[id]->ir_stripes);
  return CertainLocked(id);
}

class RelevanceEngine::CheckLocks {
 public:
  explicit CheckLocks(const RelevanceEngine& engine)
      : engine_(engine), checking_(&engine.active_checks_),
        state_(engine.state_mu_) {
    if (engine.active_applies_.load(std::memory_order_relaxed) > 0) {
      engine.counters_.Bump(engine.counters_.overlapped_checks);
    }
    adom_ = std::shared_lock<std::shared_mutex>(engine.adom_mu_);
  }

  void PinStripes(uint64_t mask) { stripes_.Lock(engine_, mask); }

 private:
  const RelevanceEngine& engine_;
  ActivityScope checking_;
  std::shared_lock<std::shared_mutex> state_;
  std::shared_lock<std::shared_mutex> adom_;
  SharedStripes stripes_;  ///< released first (declared last)
};

class RelevanceEngine::CheckScope {
 public:
  CheckScope(RelevanceEngine* engine, QueryId id, CheckKind kind)
      : engine_(engine), id_(id), kind_(kind), qs_(*engine->queries_[id]),
        seed_overlay_(&engine->conf_) {}

  QueryId id() const { return id_; }
  CheckKind kind() const { return kind_; }
  const QueryState& qs() const { return qs_; }
  std::optional<bool> certain() const { return certain_; }

  bool Certain() {
    if (!certain_.has_value()) certain_ = engine_->CertainLocked(id_);
    return *certain_;
  }

  // Queries carrying constants outside the active domain (Prop 2.2 fresh
  // head bindings) are decided over a seeded overlay — the same view the
  // one-shot k-ary wrappers build; everyone else reads conf_ directly.
  const ConfigView& View() {
    if (view_ == nullptr) {
      view_ = &engine_->SeededViewLocked(qs_, &seed_overlay_);
    }
    return *view_;
  }

 private:
  RelevanceEngine* engine_;
  const QueryId id_;
  const CheckKind kind_;
  const QueryState& qs_;
  std::optional<bool> certain_;
  OverlayConfiguration seed_overlay_;
  const ConfigView* view_ = nullptr;
};

CheckOutcome RelevanceEngine::CheckLocked(CheckScope* scope,
                                          const Access& access) {
  CheckOutcome out;
  const QueryId id = scope->id();
  const CheckKind kind = scope->kind();
  const bool is_ir = (kind == CheckKind::kImmediate);
  counters_.Bump(is_ir ? counters_.ir_checks : counters_.ltr_checks);

  // Sampled check trace. The filler destructs before the span (reverse
  // declaration order), so the event fields are set whichever return path
  // runs; with sampling off the span construction is one relaxed load.
  TraceSpan span(&obs_.trace(), TraceEventKind::kCheck);
  struct CheckTraceFill {
    TraceSpan& span;
    QueryId id;
    bool is_ir;
    const CheckOutcome& out;
    ~CheckTraceFill() {
      if (!span.active()) return;
      TraceEvent& e = span.event();
      e.id = id;
      e.detail = is_ir ? 0 : 1;
      e.flag_a = out.relevant;
      e.flag_b = out.from_cache;
    }
  } fill{span, id, is_ir, out};

  // Well-formedness gate, hoisted out of the deciders: an ill-formed
  // access is never relevant (the deciders say so too), but the verdict
  // depends on Adom membership of the binding — state *outside* the
  // relation footprint. Adom is monotone, so instead of widening every
  // stamp we simply never cache the ill-formed case; once well-formed,
  // always well-formed, and the cached verdict's footprint covers
  // everything else the decider reads.
  if (!CheckWellFormed(conf_, acs_, access).ok()) {
    counters_.Bump(counters_.wf_rejections);
    out.relevant = false;
    return out;
  }

  // Monotone short-circuit: a certain (Boolean, positive) query stays
  // certain under every sound continuation, so no access is IR or LTR for
  // it anymore — the stable negative verdict the cache's sticky class
  // describes. The per-query certainty flag already serves it for every
  // (method, binding), so no per-access entry is inserted (a settled query
  // probed forever would otherwise grow the cache without bound).
  if (scope->Certain()) {
    counters_.Bump(counters_.cache_hits);
    counters_.Bump(counters_.sticky_hits);
    out.relevant = false;
    out.from_cache = true;
    return out;
  }

  // The key borrows the access and is hashed once, for the probe and the
  // insert; the stamp (the IR or LTR footprint of this access) is read in
  // place from the version mirror, which the check locks hold still.
  const QueryState& qs = scope->qs();
  const DecisionKey key(id, kind, access);
  const LiveStamp stamp(*this, qs.footprint,
                        acs_.method(access.method).relation,
                        /*adom_sensitive=*/!is_ir);
  uint64_t ep = 0;
  if (options_.enable_cache) {
    ep = epoch();
    const DecisionCache::Probe probe = cache_.Lookup(key, stamp, ep);
    if (probe.status == DecisionCache::ProbeStatus::kHit) {
      counters_.Bump(counters_.cache_hits);
      if (probe.hit.sticky) counters_.Bump(counters_.sticky_hits);
      if (probe.hit.cross_epoch) counters_.Bump(counters_.cross_epoch_hits);
      out.relevant = probe.hit.relevant;
      out.from_cache = true;
      return out;
    }
    if (probe.status == DecisionCache::ProbeStatus::kStale) {
      counters_.Bump(counters_.stale_invalidations);
      invalidations_by_relation_[stamp.Target(probe.stale_component)]
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
  counters_.Bump(counters_.cache_misses);

  const ConfigView& view = scope->View();
  const uint64_t t0 = MonotonicNs();
  if (is_ir) {
    // The search step of Prop 4.1 alone: the gates above already showed
    // the access well-formed at conf_ (so at the seeded view, whose Adom
    // only adds seeds) and the query not certain (certainty reads facts,
    // and the seeded view adds none).
    out.relevant = HasImmediateWitness(view, acs_, access, qs.query,
                                       ThreadIrScratch());
    const uint64_t decider_ns = MonotonicNs() - t0;
    counters_.Bump(counters_.uncached_ir_checks);
    counters_.Bump(counters_.ir_time_ns, decider_ns);
    obs_.ir_decider_ns.Record(decider_ns);
  } else {
    // Likewise the LTR search alone: the deciders' own well-formedness
    // and certainty gates would repeat what the gates above showed. An
    // access with outputs under dependent methods takes the truncation-
    // cut route; once the query's memo knows it achievable from the view
    // (AchievableLocked), the cut alone decides, with no containment
    // search.
    const bool achievable = !acs_.AllIndependent() &&
                            !acs_.IsBoolean(access.method) &&
                            AchievableLocked(id, view);
    Result<bool> r = analyzer_.LongTermSearch(view, access, qs.query,
                                              options_.relevance, achievable);
    const uint64_t decider_ns = MonotonicNs() - t0;
    counters_.Bump(counters_.uncached_ltr_checks);
    counters_.Bump(counters_.ltr_time_ns, decider_ns);
    obs_.ltr_decider_ns.Record(decider_ns);
    if (!r.ok()) {
      out.status = r.status();
      return out;  // out-of-scope verdicts are never cached
    }
    out.relevant = *r;
  }
  if (options_.enable_cache) {
    cache_.Insert(key, out.relevant, /*sticky=*/false, stamp, ep);
  }
  return out;
}

CheckOutcome RelevanceEngine::CheckOne(QueryId id, CheckKind kind,
                                       const Access& access) {
  CheckLocks locks(*this);
  locks.PinStripes(QueryStripes(id, kind) | AccessedStripe(access));
  CheckScope scope(this, id, kind);
  return CheckLocked(&scope, access);
}

CheckOutcome RelevanceEngine::CheckImmediate(QueryId id, const Access& access) {
  return CheckOne(id, CheckKind::kImmediate, access);
}

CheckOutcome RelevanceEngine::CheckLongTerm(QueryId id, const Access& access) {
  return CheckOne(id, CheckKind::kLongTerm, access);
}

RelevanceEngine::ScanOutcome RelevanceEngine::FirstRelevant(
    QueryId id, CheckKind kind, const Access* accesses, size_t count,
    MethodFilter applicable, bool conservative_on_unknown) {
  ScanOutcome result;
  // The filter runs before any lock, once per method: only the relations
  // of admitted methods join the lock mask. Admission of the first 64
  // methods is kept in a mask; a later method is asked again per access.
  uint64_t admitted = 0;
  uint64_t admitted_stripes = 0;
  for (AccessMethodId mid = 0; mid < method_stripes_.size(); ++mid) {
    if (!applicable(mid)) continue;
    if (mid < 64) admitted |= uint64_t{1} << mid;
    admitted_stripes |= method_stripes_[mid];
  }
  if (admitted_stripes == 0) return result;
  auto is_admitted = [&](AccessMethodId mid) {
    if (mid >= method_stripes_.size()) return false;
    return mid < 64 ? ((admitted >> mid) & 1) != 0 : applicable(mid);
  };

  CheckLocks locks(*this);
  locks.PinStripes(QueryStripes(id, kind) | admitted_stripes);
  CheckScope scope(this, id, kind);
  for (size_t i = 0; i < count; ++i) {
    if (!is_admitted(accesses[i].method)) continue;
    const CheckOutcome out = CheckLocked(&scope, accesses[i]);
    const bool relevant =
        out.ok() ? out.relevant
                 : kind == CheckKind::kLongTerm && conservative_on_unknown;
    if (relevant) {
      result.index = static_cast<int>(i);
      break;
    }
  }
  result.certain = scope.certain();
  return result;
}

std::vector<CheckOutcome> RelevanceEngine::CheckBatch(
    QueryId id, CheckKind kind, const std::vector<Access>& accesses) {
  ScopedTimer batch_timer(&obs_.batch_ns);
  counters_.Bump(counters_.batch_calls);
  counters_.Bump(counters_.batch_items,
                 static_cast<uint64_t>(accesses.size()));
  std::vector<CheckOutcome> results(accesses.size());
  if (accesses.empty()) return results;

  CheckLocks locks(*this);
  uint64_t stripes = QueryStripes(id, kind);
  for (const Access& a : accesses) stripes |= AccessedStripe(a);
  locks.PinStripes(stripes);
  auto check = [&](size_t i) {
    CheckScope scope(this, id, kind);
    results[i] = CheckLocked(&scope, accesses[i]);
  };
  if (accesses.size() == 1 || pool_.size() == 1) {
    for (size_t i = 0; i < accesses.size(); ++i) check(i);
    return results;
  }
  // Workers share the caller's locks: the pool runs strictly inside this
  // scope, so the footprint's shards cannot move underneath them.
  pool_.ParallelFor(accesses.size(), check);
  return results;
}

double RelevanceEngine::ScoreAccess(QueryId id, const Access& access) const {
  // Pure cache probes — scoring must never trigger a decider. Stamps come
  // from the lock-free version mirror; a probe racing an apply can at
  // worst mis-rank (stale drop / spurious miss), never mis-answer.
  if (access.method >= acs_.size()) return 0.0;
  const QueryState& qs = *queries_[id];
  const AccessMethod& m = acs_.method(access.method);
  const uint64_t ep = epoch();

  // Scoring probes drop (and must attribute) stale entries just like the
  // check path does.
  auto probe_attributed = [&](CheckKind kind) {
    const LiveStamp stamp(*this, qs.footprint, m.relation,
                          /*adom_sensitive=*/kind == CheckKind::kLongTerm);
    DecisionCache::Probe probe =
        cache_.Lookup(DecisionKey(id, kind, access), stamp, ep);
    if (probe.status == DecisionCache::ProbeStatus::kStale) {
      counters_.Bump(counters_.stale_invalidations);
      invalidations_by_relation_[stamp.Target(probe.stale_component)]
          .fetch_add(1, std::memory_order_relaxed);
    }
    return probe;
  };
  DecisionCache::Probe ir = probe_attributed(CheckKind::kImmediate);
  DecisionCache::Probe ltr = probe_attributed(CheckKind::kLongTerm);

  const bool ir_hit = ir.status == DecisionCache::ProbeStatus::kHit;
  const bool ltr_hit = ltr.status == DecisionCache::ProbeStatus::kHit;
  if (ir_hit && ir.hit.relevant) return 4.0;
  if (ltr_hit && ltr.hit.relevant) return 3.0;
  double score = 1.0;
  // Criticality hint: accesses over a relation the query mentions can
  // witness a subgoal directly; others only matter through dependent
  // chains.
  if (qs.footprint.Contains(m.relation)) score += 1.0;
  if (ir_hit && !ir.hit.relevant && ltr_hit && !ltr.hit.relevant) {
    score = 0.0;  // known irrelevant both ways at these versions
  }
  return score;
}

std::vector<Access> RelevanceEngine::CandidateAccesses(QueryId id) {
  // The frontier is synced by every Adom growth (constructor,
  // ApplyResponse), so enumeration is a pure read under its lock.
  std::shared_lock<std::shared_mutex> state(state_mu_);
  std::lock_guard<std::mutex> fl(frontier_mu_);
  return frontier_.Ranked(
      [&](const Access& a) { return ScoreAccess(id, a); });
}

std::vector<Access> RelevanceEngine::PendingAccesses() {
  std::lock_guard<std::mutex> fl(frontier_mu_);
  return frontier_.Pending();
}

bool RelevanceEngine::WasPerformed(const Access& access) const {
  std::lock_guard<std::mutex> fl(frontier_mu_);
  return frontier_.WasPerformed(access);
}

std::vector<Access> RelevanceEngine::PerformedAccesses() const {
  std::lock_guard<std::mutex> fl(frontier_mu_);
  return frontier_.PerformedList();
}

void RelevanceEngine::RestorePerformed(const std::vector<Access>& accesses) {
  std::lock_guard<std::mutex> fl(frontier_mu_);
  for (const Access& a : accesses) frontier_.MarkPerformed(a);
}

std::unordered_set<DomainId> RelevanceEngine::producible_domains() {
  std::shared_lock<std::shared_mutex> state(state_mu_);
  std::shared_lock<std::shared_mutex> adom(adom_mu_);
  // The fixpoint reads only the typed active domain and the (static)
  // method set, so the Adom version is its whole footprint.
  std::lock_guard<std::mutex> lock(producible_mu_);
  const uint64_t av = conf_.adom_version();
  if (producible_valid_ && producible_adom_version_ == av) {
    counters_.Bump(counters_.producible_reuse);
    return producible_;
  }
  producible_ = ProducibleDomains(conf_, acs_);
  producible_valid_ = true;
  producible_adom_version_ = av;
  counters_.Bump(counters_.producible_recomputes);
  return producible_;
}

EngineStats RelevanceEngine::stats() const {
  EngineStats s;
  counters_.FoldInto(&s);
  s.cache_entries = cache_.size();
  s.cache_evictions = cache_.evictions();
  s.invalidations_by_relation.resize(num_relations_ + 1);
  for (size_t r = 0; r <= num_relations_; ++r) {
    s.invalidations_by_relation[r] =
        invalidations_by_relation_[r].load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> fl(frontier_mu_);
    s.frontier_pending = frontier_.pending_size();
    s.frontier_performed = frontier_.performed_size();
  }
  std::vector<ApplyListener*> listeners;
  {
    std::lock_guard<std::mutex> ll(listeners_mu_);
    listeners = listeners_;
  }
  // Contribute outside listeners_mu_ (same discipline as NotifyApplied):
  // a listener's ContributeStats may take locks that are also held
  // around engine applies — e.g. DurableSession's session mutex — and
  // holding listeners_mu_ across the call would invert that order.
  for (const ApplyListener* l : listeners) l->ContributeStats(&s);
  return s;
}

}  // namespace rar
