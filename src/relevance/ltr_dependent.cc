#include "relevance/ltr_dependent.h"

#include <vector>

#include "query/eval.h"
#include "query/structure.h"
#include "relational/overlay.h"
#include "transform/ltr_to_containment.h"
#include "util/combinatorics.h"

namespace rar {

namespace {

// A subgoal is compatible with the access when it is over the accessed
// relation and no constant term clashes with the binding at an input
// position (Prop 3.5: "same relation, and no mismatch of constants with
// the binding").
bool AtomCompatibleWithAccess(const AccessMethodSet& acs, const Access& access,
                              const Atom& atom) {
  const AccessMethod& m = acs.method(access.method);
  if (atom.relation != m.relation) return false;
  for (int i = 0; i < m.num_inputs(); ++i) {
    const Term& t = atom.terms[m.input_positions[i]];
    if (t.is_const() && t.constant != access.binding[i]) return false;
  }
  return true;
}

// The Prop 3.5 subset search (no well-formedness gate).
Result<bool> DependentCQSearch(const ConfigView& conf,
                               const AccessMethodSet& acs,
                               const Access& access,
                               const ConjunctiveQuery& query,
                               const ContainmentOptions& options) {
  if (!query.IsBoolean()) {
    return Status::InvalidArgument("Prop 3.5 algorithm needs a Boolean CQ");
  }

  std::vector<int> q1;  // compatible subgoals
  std::vector<int> q2;  // the rest
  for (int i = 0; i < query.num_atoms(); ++i) {
    (AtomCompatibleWithAccess(acs, access, query.atoms[i]) ? q1 : q2)
        .push_back(i);
  }
  if (q1.size() > 20) {
    return Status::InvalidArgument(
        "too many compatible subgoals (2^k guesses)");
  }

  ContainmentEngine engine(*acs.schema(), acs);
  Status oracle_error = Status::OK();
  bool relevant = ForEachSubset(
      static_cast<int>(q1.size()), [&](uint64_t mask) {
        if (mask + 1 == (uint64_t{1} << q1.size())) return false;  // Q'1 = Q1
        // Build Q'1 ∧ Q2 while keeping the original variable identities
        // (SubqueryOf re-indexes but preserves join structure).
        std::vector<int> kept = q2;
        for (size_t j = 0; j < q1.size(); ++j) {
          if (mask & (uint64_t{1} << j)) kept.push_back(q1[j]);
        }
        ConjunctiveQuery candidate = SubqueryOf(query, kept);
        Status vs = candidate.Validate(*acs.schema());
        if (!vs.ok()) {
          oracle_error = vs;
          return true;  // abort enumeration
        }
        auto decision = engine.Contained(candidate, query, conf, options);
        if (!decision.ok()) {
          oracle_error = decision.status();
          return true;  // abort enumeration
        }
        return !decision->contained;  // some guess refutes containment: LTR
      });
  RAR_RETURN_NOT_OK(oracle_error);
  return relevant;
}

// The Prop 3.4 reduction to non-containment (no well-formedness gate).
Result<bool> DependentUCQSearch(const ConfigView& conf,
                                const AccessMethodSet& acs,
                                const Access& access, const UnionQuery& query,
                                const ContainmentOptions& options) {
  RAR_ASSIGN_OR_RETURN(
      LtrToContainmentInstance instance,
      BuildLtrToContainment(*acs.schema(), acs, conf, access, query,
                            /*materialize_conf=*/false));
  // Zero-copy: IsBind(Bind) is overlaid onto the live configuration; the
  // schema override retypes reads under the extension (relation ids are
  // stable, and the fresh IsBind relation has no base facts).
  OverlayConfiguration oconf(&conf);
  oconf.OverrideSchema(instance.schema.get());
  oconf.AddFact(instance.isbind_fact);
  ContainmentEngine engine(*instance.schema, instance.acs);
  RAR_ASSIGN_OR_RETURN(ContainmentDecision decision,
                       engine.Contained(instance.q_rewritten,
                                        instance.q_original, oconf,
                                        options));
  return !decision.contained;
}

// (b) the truncation cut: some dependent method can consume a fresh output
// value of the access, every other input slot fillable. Read off `conf`
// and the access alone: the generic response tuple puts a value into every
// domain of the accessed relation (the binding on inputs, fresh nulls on
// outputs), so a domain is fillable iff `conf` inhabits it or the
// relation has an attribute of it.
bool TruncationCut(const ConfigView& conf, const AccessMethodSet& acs,
                   const Access& access) {
  const Schema& schema = *acs.schema();
  const AccessMethod& m = acs.method(access.method);
  const Relation& rel = schema.relation(m.relation);
  auto in_relation = [&](DomainId dom, bool outputs_only) {
    for (int pos = 0; pos < rel.arity(); ++pos) {
      if (outputs_only && m.IsInputPosition(pos)) continue;
      if (rel.attributes[pos].domain == dom) return true;
    }
    return false;
  };
  for (AccessMethodId mid = 0; mid < acs.size(); ++mid) {
    const AccessMethod& m2 = acs.method(mid);
    if (!m2.dependent) continue;
    const Relation& rel2 = schema.relation(m2.relation);
    for (int slot : m2.input_positions) {
      if (!in_relation(rel2.attributes[slot].domain, /*outputs_only=*/true)) {
        continue;
      }
      bool others_fillable = true;
      for (int other : m2.input_positions) {
        if (other == slot) continue;
        const DomainId dom = rel2.attributes[other].domain;
        if (conf.AdomOfDomain(dom).empty() &&
            !in_relation(dom, /*outputs_only=*/false)) {
          others_fillable = false;
          break;
        }
      }
      if (others_fillable) return true;
    }
  }
  return false;
}

}  // namespace

Result<bool> IsLongTermRelevantDependentCQ(const ConfigView& conf,
                                           const AccessMethodSet& acs,
                                           const Access& access,
                                           const ConjunctiveQuery& query,
                                           const ContainmentOptions& options) {
  if (!CheckWellFormed(conf, acs, access).ok()) return false;
  return DependentCQSearch(conf, acs, access, query, options);
}

Result<bool> IsLongTermRelevantDependentUCQ(
    const ConfigView& conf, const AccessMethodSet& acs,
    const Access& access, const UnionQuery& query,
    const ContainmentOptions& options) {
  if (!CheckWellFormed(conf, acs, access).ok()) return false;
  return DependentUCQSearch(conf, acs, access, query, options);
}

Result<bool> IsLongTermRelevantDependentGeneral(
    const ConfigView& conf, const AccessMethodSet& acs,
    const Access& access, const UnionQuery& query,
    const ContainmentOptions& options) {
  if (!CheckWellFormed(conf, acs, access).ok()) return false;
  // A certain query makes nothing relevant; the Boolean routes decide
  // that inside their containment oracle.
  if (!acs.IsBoolean(access.method) && EvalBool(query, conf)) return false;
  return LongTermDependentSearch(conf, acs, access, query, options);
}

Result<bool> LongTermDependentSearch(const ConfigView& conf,
                                     const AccessMethodSet& acs,
                                     const Access& access,
                                     const UnionQuery& query,
                                     const ContainmentOptions& options,
                                     bool achievable) {
  if (acs.IsBoolean(access.method)) {
    if (query.disjuncts.size() == 1) {
      return DependentCQSearch(conf, acs, access, query.disjuncts[0],
                               options);
    }
    return DependentUCQSearch(conf, acs, access, query, options);
  }
  if (!achievable) {
    // (c) achievability of the query from conf + the generic response
    // tuple: binding on inputs, fresh nulls on outputs, overlaid onto the
    // (uncopied) base.
    const AccessMethod& m = acs.method(access.method);
    const Relation& rel = acs.schema()->relation(m.relation);
    NullFactory nulls;
    Fact generic;
    generic.relation = m.relation;
    generic.values.resize(rel.arity());
    int next_input = 0;
    for (int pos = 0; pos < rel.arity(); ++pos) {
      if (next_input < m.num_inputs() &&
          m.input_positions[next_input] == pos) {
        generic.values[pos] = access.binding[next_input];
        ++next_input;
      } else {
        generic.values[pos] = nulls.Fresh();
      }
    }
    OverlayConfiguration conf_plus(&conf);
    conf_plus.AddFact(generic);
    RAR_ASSIGN_OR_RETURN(bool reachable,
                         IsAchievable(conf_plus, acs, query, options));
    if (!reachable) return false;  // no reachable config satisfies Q
  }
  if (TruncationCut(conf, acs, access)) return true;
  return Status::FailedPrecondition(
      "general-access LTR undecided: the query is achievable but no "
      "dependent method can consume any output domain of the access (the "
      "truncation cannot be cut); outside both the paper's Boolean scope "
      "and the cut extension");
}

Result<bool> IsAchievable(const ConfigView& conf, const AccessMethodSet& acs,
                          const UnionQuery& query,
                          const ContainmentOptions& options) {
  ContainmentEngine engine(*acs.schema(), acs);
  RAR_ASSIGN_OR_RETURN(ContainmentDecision decision,
                       engine.Achievable(query, conf, options));
  return !decision.contained;
}

}  // namespace rar
