// Long-term relevance with dependent access methods (Section 5).
//
// Conjunctive queries (Prop 3.5): split Q = Q1 ∧ Q2 where Q1 collects the
// subgoals compatible with the access (same relation, no constant mismatch
// with the binding). The access is LTR iff some proper subset Q'1 ⊊ Q1
// makes Q'1 ∧ Q2 NOT contained in Q under access limitations — an NP
// algorithm with a containment oracle, which is how the NEXPTIME upper
// bound of Table 1 is obtained.
//
// Positive queries (Prop 3.4): rewrite the query with the IsBind relation
// and decide non-containment of the rewritten query in the original one.
//
// The paper develops dependent-case LTR for Boolean accesses; these
// engines accept arbitrary accesses but the paper-backed exactness claims
// (and the tests) target Boolean accesses.
#ifndef RAR_RELEVANCE_LTR_DEPENDENT_H_
#define RAR_RELEVANCE_LTR_DEPENDENT_H_

#include "access/access_method.h"
#include "containment/access_containment.h"
#include "query/query.h"
#include "relational/configuration.h"
#include "util/status.h"

namespace rar {

/// Decides LTR via the Prop 3.5 subset algorithm (Boolean CQs).
Result<bool> IsLongTermRelevantDependentCQ(
    const ConfigView& conf, const AccessMethodSet& acs,
    const Access& access, const ConjunctiveQuery& query,
    const ContainmentOptions& options = {});

/// Decides LTR via the Prop 3.4 reduction to non-containment (Boolean
/// UCQs / positive queries).
Result<bool> IsLongTermRelevantDependentUCQ(
    const ConfigView& conf, const AccessMethodSet& acs,
    const Access& access, const UnionQuery& query,
    const ContainmentOptions& options = {});

/// LTR for *non-Boolean* dependent accesses — the extension the paper
/// leaves as future work, decided exactly via the truncation-cut argument:
///
/// A non-Boolean access can return a tuple carrying a fresh value v. Any
/// later access whose binding uses v is ill-formed once the first access
/// is removed, so the truncated path stops right there: the adversary can
/// cut the truncation down to the starting configuration by scheduling one
/// such access (possibly with an empty response) second. Hence, whenever
/// (a) the query is not yet certain, (b) some dependent method can consume
/// a value from one of the access's output domains (the "cut"), and
/// (c) the query is achievable from Conf plus one generic response tuple,
/// the access is long-term relevant; failing (a) or (c) it is not. The
/// only undecided corner is achievable-but-uncuttable (no dependent method
/// consumes any output domain), reported as FailedPrecondition.
///
/// Boolean accesses are delegated to the Prop 3.5 / 3.4 engines.
Result<bool> IsLongTermRelevantDependentGeneral(
    const ConfigView& conf, const AccessMethodSet& acs,
    const Access& access, const UnionQuery& query,
    const ContainmentOptions& options = {});

/// The search step of IsLongTermRelevantDependentGeneral alone, without
/// its well-formedness and certainty gates (or those of the CQ / UCQ
/// entries it dispatches to). Only meaningful when `access` is well-formed
/// at `conf` and `query` is not certain there; the caller must already
/// know both (the RelevanceEngine establishes them under its check locks
/// before it calls this). Same verdict as the gated entry otherwise.
///
/// `achievable` (read only for accesses with outputs) tells that the query
/// is already known achievable from `conf` itself (IsAchievable). Then
/// (c) holds without a search — a witness path from `conf` replays after
/// the access with its generic response, since well-formedness only needs
/// inputs in the active domain and the query is positive — and the
/// verdict is the cut's alone: relevant, or FailedPrecondition when
/// nothing can cut. The RelevanceEngine keeps that knowledge per query
/// (DESIGN.md "The achievability memo").
Result<bool> LongTermDependentSearch(const ConfigView& conf,
                                     const AccessMethodSet& acs,
                                     const Access& access,
                                     const UnionQuery& query,
                                     const ContainmentOptions& options,
                                     bool achievable = false);

/// Achievability of the Boolean `query` from `conf`: true when the
/// containment witness search finds a configuration reachable from `conf`
/// that satisfies it (ContainmentEngine::Achievable). Reads the active
/// domain, the facts of the query's relations, and facts of other method
/// relations only through probes for facts carrying a fresh or missing
/// value, which no configuration contains.
Result<bool> IsAchievable(const ConfigView& conf, const AccessMethodSet& acs,
                          const UnionQuery& query,
                          const ContainmentOptions& options);

}  // namespace rar

#endif  // RAR_RELEVANCE_LTR_DEPENDENT_H_
