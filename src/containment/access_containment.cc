#include "containment/access_containment.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "query/eval.h"
#include "query/structure.h"
#include "relational/overlay.h"
#include "util/combinatorics.h"

namespace rar {

void SeedQueryConstants(Configuration* conf, const UnionQuery& q,
                        const Schema& schema) {
  for (const TypedValue& tv : QueryConstants(q, schema)) {
    conf->AddSeedConstant(tv.value, tv.domain);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Independent-only fast path (Section 4 / the Π2P characterisation).
//
// With only independent methods, the reachable configurations are exactly
// Conf plus arbitrary fact sets over relations that have methods. A
// disjunct D of Q1 refutes containment iff some homomorphism maps its
// method-less atoms into Conf and freezing the remaining atoms maximally
// fresh leaves Q2 false (fresher witnesses map homomorphically into coarser
// ones, so maximal freshness is the canonical choice).
// ---------------------------------------------------------------------------
class IndependentDisjunctSearch {
 public:
  IndependentDisjunctSearch(const Schema& schema, const AccessMethodSet& acs,
                            const ConfigView& conf,
                            const ConjunctiveQuery& d, const UnionQuery& q2,
                            WitnessSearchStats* stats)
      : schema_(schema), acs_(acs), conf_(conf), d_(d), q2_(q2),
        stats_(stats), extended_(&conf) {}

  bool Run(std::vector<Fact>* witness_facts) {
    // Split atoms by whether their relation is accessible at all.
    ConjunctiveQuery fixed_part = d_;  // same variable table, fewer atoms
    fixed_part.atoms.clear();
    fixed_part.head.clear();
    std::vector<int> free_atoms;
    for (int i = 0; i < d_.num_atoms(); ++i) {
      if (acs_.HasMethod(d_.atoms[i].relation)) {
        free_atoms.push_back(i);
      } else {
        fixed_part.atoms.push_back(d_.atoms[i]);
      }
    }

    auto try_assignment = [&](const std::vector<Value>& fixed_assignment)
        -> bool {
      ++stats_->patterns_tried;
      // Complete the assignment: variables not pinned by the fixed part
      // get private fresh nulls.
      std::vector<bool> pinned(d_.num_vars(), false);
      for (const Atom& atom : fixed_part.atoms) {
        for (const Term& t : atom.terms) {
          if (t.is_var()) pinned[t.var] = true;
        }
      }
      std::vector<Value> assignment(d_.num_vars());
      NullFactory nulls;
      for (int v = 0; v < d_.num_vars(); ++v) {
        assignment[v] = pinned[v] ? fixed_assignment[v] : nulls.Fresh();
      }
      // The frozen atoms are overlaid onto the (uncopied) base; the delta
      // is exactly the fresh-fact set a witness reports.
      extended_.Reset();
      for (const Fact& f : GroundAtoms(d_, assignment, free_atoms)) {
        extended_.AddFact(f);
      }
      ++stats_->q2_checks;
      if (!EvalBool(q2_, extended_)) {
        *witness_facts = extended_.DeltaFacts();
        return true;
      }
      return false;
    };

    if (fixed_part.atoms.empty()) {
      std::vector<Value> none(d_.num_vars());
      return try_assignment(none);
    }
    return ForEachHomomorphism(fixed_part, conf_, try_assignment);
  }

 private:
  const Schema& schema_;
  const AccessMethodSet& acs_;
  const ConfigView& conf_;
  const ConjunctiveQuery& d_;
  const UnionQuery& q2_;
  WitnessSearchStats* stats_;
  OverlayConfiguration extended_;
};

// ---------------------------------------------------------------------------
// General (dependent) witness search: canonical homomorphism patterns plus
// on-demand auxiliary production facts (the crayfish-chase structure).
// ---------------------------------------------------------------------------
class DependentDisjunctSearch {
 public:
  DependentDisjunctSearch(const Schema& schema, const AccessMethodSet& acs,
                          const ConfigView& conf,
                          const ConjunctiveQuery& d, const UnionQuery& q2,
                          const ContainmentOptions& options,
                          WitnessSearchStats* stats)
      : schema_(schema), acs_(acs), conf_(conf), d_(d), q2_(q2),
        options_(options), stats_(stats), assignment_(d.num_vars()),
        working_(&conf) {}

  bool Run(std::vector<Fact>* witness_facts) {
    witness_facts_ = witness_facts;
    return EnumVars(0);
  }

 private:
  bool BudgetOk() {
    if (options_.node_budget > 0 &&
        stats_->patterns_tried + stats_->aux_facts_tried >
            options_.node_budget) {
      stats_->complete = false;
      return false;
    }
    return true;
  }

  // Enumerates canonical variable assignments: each variable maps to a
  // typed active-domain value of the base configuration, joins an existing
  // null block of its domain, or opens a fresh block (restricted growth, so
  // each coalescing pattern is produced exactly once).
  bool EnumVars(int v) {
    if (!BudgetOk()) return false;
    if (v == d_.num_vars()) return TryPattern();
    DomainId dom = d_.var_domains[v];
    if (dom == kInvalidId || !d_.VarOccurs(v)) {
      // Variable does not occur in any atom (e.g. it was orphaned by a
      // query rewrite); bind it to a throwaway null without branching.
      assignment_[v] = nulls_.Fresh();
      return EnumVars(v + 1);
    }
    for (const Value& val : conf_.AdomOfDomain(dom)) {
      assignment_[v] = val;
      if (EnumVars(v + 1)) return true;
    }
    std::vector<Value>& blocks = null_blocks_[dom];
    for (size_t i = 0; i < blocks.size(); ++i) {
      assignment_[v] = blocks[i];
      if (EnumVars(v + 1)) return true;
    }
    Value fresh = nulls_.Fresh();
    blocks.push_back(fresh);
    assignment_[v] = fresh;
    bool found = EnumVars(v + 1);
    null_blocks_[dom].pop_back();
    return found;
  }

  bool TryPattern() {
    ++stats_->patterns_tried;
    // The pattern's fact set S, deduplicated and overlaid onto the
    // (uncopied) base; facts over method-less relations must already be in
    // Conf. Facts the configuration already contains need no placement and
    // stay out of S (CheckSetReachability would skip them anyway).
    working_.Reset();
    std::vector<Fact> s;
    for (Fact& f : GroundAtoms(d_, assignment_)) {
      if (!acs_.HasMethod(f.relation) && !conf_.Contains(f)) return false;
      if (working_.AddFact(f)) s.push_back(std::move(f));
    }
    ++stats_->q2_checks;
    if (EvalBool(q2_, working_)) return false;  // monotone: branch is dead
    return AuxSearch(&s, 0);
  }

  // One step of the auxiliary search: if S is schedulable we have a witness
  // (Q2 is already known false on conf ∪ S); otherwise branch over every
  // auxiliary response fact placeable at the greedy fixpoint. `working_`
  // mirrors conf ∪ S via AddFact/PopFact (LIFO with the recursion).
  bool AuxSearch(std::vector<Fact>* s, int aux_used) {
    if (!BudgetOk()) return false;
    ReachResult reach = CheckSetReachability(conf_, acs_, *s);
    if (reach.reachable) {
      *witness_facts_ = *s;
      return true;
    }
    if (aux_used >= options_.max_aux_facts) return false;
    // A fact over a relation without methods can never be placed.
    for (int idx : reach.unplaced) {
      if (!acs_.HasMethod((*s)[idx].relation)) return false;
    }

    // Index accessible values and missing values by domain. Newest values
    // first: auxiliary chains preferentially extend the current frontier
    // instead of re-branching from old values, which keeps witnesses short.
    // The values placed facts added come newest-first (reach.accessible is
    // in deterministic first-seen order), then the base active domain in
    // descending order.
    std::unordered_map<DomainId, std::vector<Value>> added_by_domain;
    for (auto it = reach.accessible.rbegin(); it != reach.accessible.rend();
         ++it) {
      added_by_domain[it->domain].push_back(it->value);
    }
    std::unordered_map<DomainId, std::vector<Value>> missing_by_domain;
    for (const TypedValue& tv : reach.missing_inputs) {
      missing_by_domain[tv.domain].push_back(tv.value);
    }

    // Branch over candidate auxiliary facts, method by method.
    for (AccessMethodId mid = 0; mid < acs_.size(); ++mid) {
      const AccessMethod& m = acs_.method(mid);
      const Relation& rel = schema_.relation(m.relation);

      // Candidate values per position. Inputs: accessible values (plus a
      // fresh guess and missing values for independent methods — guessing
      // names the value). Outputs: a fresh null or a currently-missing
      // value of the position's domain.
      enum class SlotKind : uint8_t { kOld, kMissing, kFresh };
      struct SlotChoice {
        Value value;  // unused for kFresh (minted per candidate fact)
        SlotKind kind;
      };
      std::vector<std::vector<SlotChoice>> slot_candidates(rel.arity());
      bool viable = true;
      for (int pos = 0; pos < rel.arity() && viable; ++pos) {
        DomainId dom = rel.attributes[pos].domain;
        std::vector<SlotChoice>& cands = slot_candidates[pos];
        bool is_input = m.IsInputPosition(pos);
        auto push_accessible = [&]() {
          for (const Value& v : added_by_domain[dom]) {
            cands.push_back({v, SlotKind::kOld});
          }
          for (const Value& v : BaseAdomDescending(dom)) {
            cands.push_back({v, SlotKind::kOld});
          }
        };
        if (is_input && m.dependent) {
          push_accessible();
          if (cands.empty()) viable = false;
        } else if (is_input) {  // independent input: free guess
          push_accessible();
          for (const Value& v : missing_by_domain[dom]) {
            cands.push_back({v, SlotKind::kMissing});
          }
          cands.push_back({Value(), SlotKind::kFresh});
        } else {  // output position
          for (const Value& v : missing_by_domain[dom]) {
            cands.push_back({v, SlotKind::kMissing});
          }
          cands.push_back({Value(), SlotKind::kFresh});
        }
      }
      if (!viable) continue;

      std::vector<int> sizes;
      sizes.reserve(rel.arity());
      for (int pos = 0; pos < rel.arity(); ++pos) {
        sizes.push_back(static_cast<int>(slot_candidates[pos].size()));
      }
      bool found = ForEachProduct(sizes, [&](const std::vector<int>& choice) {
        // Build the candidate fact; require at least one genuinely new
        // value, otherwise the fact cannot unblock anything.
        Fact aux;
        aux.relation = m.relation;
        aux.values.resize(rel.arity());
        bool introduces_new = false;
        for (int pos = 0; pos < rel.arity(); ++pos) {
          const SlotChoice& sc = slot_candidates[pos][choice[pos]];
          aux.values[pos] =
              sc.kind == SlotKind::kFresh ? nulls_.Fresh() : sc.value;
          introduces_new = introduces_new || sc.kind != SlotKind::kOld;
        }
        if (!introduces_new) return false;
        if (working_.Contains(aux)) return false;
        ++stats_->aux_facts_tried;
        if (!BudgetOk()) return false;

        working_.AddFact(aux);
        ++stats_->q2_checks;
        if (EvalBoolDelta(q2_, working_, aux)) {  // pruned
          working_.PopFact();
          return false;
        }
        s->push_back(aux);
        bool ok = AuxSearch(s, aux_used + 1);
        s->pop_back();
        working_.PopFact();
        return ok;
      });
      if (found) return true;
    }
    return false;
  }

  // The base active domain of `dom` in descending value order, read from
  // conf_ once per search (the base does not change while it runs).
  const std::vector<Value>& BaseAdomDescending(DomainId dom) {
    auto [it, fresh] = base_adom_desc_.try_emplace(dom);
    if (fresh) {
      it->second = conf_.AdomOfDomain(dom).ToVector();
      std::sort(it->second.rbegin(), it->second.rend());
    }
    return it->second;
  }

  const Schema& schema_;
  const AccessMethodSet& acs_;
  const ConfigView& conf_;
  const ConjunctiveQuery& d_;
  const UnionQuery& q2_;
  const ContainmentOptions& options_;
  WitnessSearchStats* stats_;

  NullFactory nulls_;
  std::vector<Value> assignment_;
  OverlayConfiguration working_;
  std::unordered_map<DomainId, std::vector<Value>> null_blocks_;
  std::unordered_map<DomainId, std::vector<Value>> base_adom_desc_;
  std::vector<Fact>* witness_facts_ = nullptr;
};

}  // namespace

Result<ContainmentDecision> ContainmentEngine::Contained(
    const UnionQuery& q1, const UnionQuery& q2, const ConfigView& conf,
    const ContainmentOptions& options) {
  if (!q1.IsBoolean() || !q2.IsBoolean()) {
    return Status::InvalidArgument(
        "access-limited containment is defined here for Boolean queries "
        "(use the Prop 2.2 wrapper for k-ary relevance)");
  }
  ContainmentDecision decision;

  // Q2 certain at Conf makes containment trivial on every reachable
  // configuration (monotonicity).
  if (EvalBool(q2, conf)) {
    decision.contained = true;
    return decision;
  }

  for (size_t di = 0; di < q1.disjuncts.size(); ++di) {
    const ConjunctiveQuery& d = q1.disjuncts[di];
    std::vector<Fact> witness_facts;
    bool found = false;
    if (acs_.AllIndependent()) {
      IndependentDisjunctSearch search(schema_, acs_, conf, d, q2,
                                       &decision.stats);
      found = search.Run(&witness_facts);
    } else {
      DependentDisjunctSearch search(schema_, acs_, conf, d, q2, options,
                                     &decision.stats);
      found = search.Run(&witness_facts);
    }
    if (!found) continue;

    decision.contained = false;
    if (!options.build_witness) return decision;  // verdict-only callers
    NonContainmentWitness witness;
    witness.disjunct_index = static_cast<int>(di);
    RAR_ASSIGN_OR_RETURN(witness.steps,
                         BuildRealizingSteps(conf, acs_, witness_facts));
    AccessPath path(&conf, &acs_);
    for (const AccessStep& step : witness.steps) path.Append(step);
    RAR_ASSIGN_OR_RETURN(witness.final_config, path.Replay());
    if (options.verify_witnesses) {
      if (!EvalBool(d, witness.final_config) ||
          EvalBool(q2, witness.final_config)) {
        return Status::Internal(
            "containment witness failed verification (engine bug)");
      }
    }
    decision.witness = std::move(witness);
    return decision;
  }

  decision.contained = true;
  return decision;
}

Result<ContainmentDecision> ContainmentEngine::Contained(
    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const ConfigView& conf, const ContainmentOptions& options) {
  UnionQuery u1, u2;
  u1.disjuncts.push_back(q1);
  u2.disjuncts.push_back(q2);
  return Contained(u1, u2, conf, options);
}

Result<ContainmentDecision> ContainmentEngine::Achievable(
    const UnionQuery& q, const ConfigView& conf,
    const ContainmentOptions& options) {
  UnionQuery never;  // the empty union is false everywhere
  RAR_ASSIGN_OR_RETURN(ContainmentDecision contained_in_false,
                       Contained(q, never, conf, options));
  // Achievable iff NOT contained in false; rewrap so `contained == false`
  // keeps meaning "witness found" for the caller.
  return contained_in_false;
}

}  // namespace rar
