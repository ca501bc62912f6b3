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

#include <vector>

#include "access/access_method.h"
#include "query/query.h"
#include "relational/configuration.h"

namespace rar {

/// \brief The IR search's working buffers: the variable assignment, its
/// assigned flags and the undo trail. A caller deciding many accesses
/// keeps one and passes it to each HasImmediateWitness call, so a search
/// allocates nothing once the buffers have grown to the query's variable
/// count. One per thread: a search overwrites it.
struct IrScratch {
  std::vector<Value> assignment;
  std::vector<char> assigned;
  std::vector<VarId> trail;  ///< variables bound, in binding order
};

/// Decides immediate relevance of `access` for the Boolean query at `conf`.
/// Ill-formed accesses are never relevant (they cannot be performed).
bool IsImmediatelyRelevant(const ConfigView& conf,
                           const AccessMethodSet& acs, const Access& access,
                           const UnionQuery& query);

/// The search step of IsImmediatelyRelevant alone: true when some disjunct
/// has an assignment witnessed by `conf` plus the access. Only meaningful
/// when `access` is well-formed at `conf` and `query` is not certain there;
/// the caller must already know both (the RelevanceEngine establishes them
/// under its check locks before it calls this). The search works in
/// `scratch`, whose contents on entry do not matter.
bool HasImmediateWitness(const ConfigView& conf, const AccessMethodSet& acs,
                         const Access& access, const UnionQuery& query,
                         IrScratch* scratch);

/// EvalBool(query, conf) for a Boolean query, by the same indexed search
/// with the access option off: every atom is matched against `conf`. Works
/// in `scratch` like HasImmediateWitness, so it allocates nothing once the
/// buffers have grown (the RelevanceEngine's certainty memo re-evaluates
/// through it). EvalBool stays the reference.
bool EvalBoolIndexed(const UnionQuery& query, const ConfigView& conf,
                     IrScratch* scratch);

}  // namespace rar

#endif  // RAR_RELEVANCE_IMMEDIATE_H_
