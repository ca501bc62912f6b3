// Immediate relevance (Section 2 definition, Proposition 4.1 algorithm).
//
// An access (AcM, Bind) is immediately relevant (IR) for Q at Conf when
// some sound response makes a tuple certain that was not certain before.
// For Boolean positive queries this is decided by the paper's DP procedure:
// reject if Q is already certain; otherwise search for an assignment of the
// query variables into Adom(Conf) ∪ {one fresh value per domain} under
// which every subgoal of some disjunct is witnessed either by Conf or by
// compatibility with the access (same relation, input positions equal to
// the binding). The fresh values are represented implicitly: variables that
// only appear at output positions of access-witnessed atoms stay unbound,
// which is exactly "any value the response could contain".
//
// IR does not depend on whether methods are dependent or independent
// (Section 5: "results for IR are clearly the same"), only on the single
// access's well-formedness.
#ifndef RAR_RELEVANCE_IMMEDIATE_H_
#define RAR_RELEVANCE_IMMEDIATE_H_

#include "access/access_method.h"
#include "query/query.h"
#include "relational/configuration.h"

namespace rar {

/// Decides immediate relevance of `access` for the Boolean query at `conf`.
/// Ill-formed accesses are never relevant (they cannot be performed).
bool IsImmediatelyRelevant(const ConfigView& conf,
                           const AccessMethodSet& acs, const Access& access,
                           const UnionQuery& query);

/// The search step of IsImmediatelyRelevant alone: true when some disjunct
/// has an assignment witnessed by `conf` plus the access. Only meaningful
/// when `access` is well-formed at `conf` and `query` is not certain there;
/// the caller must already know both (the RelevanceEngine establishes them
/// under its check locks before it calls this).
bool HasImmediateWitness(const ConfigView& conf, const AccessMethodSet& acs,
                         const Access& access, const UnionQuery& query);

}  // namespace rar

#endif  // RAR_RELEVANCE_IMMEDIATE_H_
