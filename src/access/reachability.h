// Reachability of fact sets and producibility of domains.
//
// The witness searches reduce "is configuration Conf ∪ F reachable?" to a
// scheduling question: can the facts of F be ordered so that each one is a
// legal response to a well-formed access? Because the active domain only
// grows along a path, a greedy fixpoint is complete for a *fixed* fact set
// — this is the polynomial-time workhorse (`CheckSetReachability`) that the
// exponential searches call in their inner loop. Its cost follows |F|, not
// |Adom|: the configuration's active domain is probed, never copied.
//
// `ProducibleDomains` computes the abstract domains in which fresh values
// can be manufactured at all (the fixpoint underlying the auxiliary-chain
// construction and the Li–Chang accessible part).
#ifndef RAR_ACCESS_REACHABILITY_H_
#define RAR_ACCESS_REACHABILITY_H_

#include <unordered_set>
#include <vector>

#include "access/access_method.h"
#include "access/path.h"
#include "relational/configuration.h"

namespace rar {

/// \brief Outcome of a set-reachability check.
struct ReachResult {
  bool reachable = false;
  /// Indices into the input fact vector, in a valid placement order
  /// (meaningful when reachable).
  std::vector<int> order;
  /// Method used to place each fact, aligned with `order`.
  std::vector<AccessMethodId> methods;
  /// When not reachable: indices of facts that could not be placed.
  std::vector<int> unplaced;
  /// When not reachable: typed values that appear in a dependent input
  /// position of some unplaced fact and are not accessible. Producing any
  /// of them (or more of them) is the only way to make progress.
  std::vector<TypedValue> missing_inputs;
  /// The typed values the placed facts made accessible beyond the
  /// configuration's own active domain, in first-seen order. The accessible
  /// set at the greedy fixpoint is `conf`'s active domain plus these; the
  /// active domain itself is probed, never copied, so a caller that needs
  /// its values reads them from `conf` (the witness search reads them once
  /// per search and draws auxiliary-access inputs from both).
  std::vector<TypedValue> accessible;
};

/// Decides whether `conf ∪ facts` is reachable from `conf` by a well-formed
/// access path whose responses are exactly `facts` (facts already in `conf`
/// are ignored). Greedy and complete: it places any fact all of whose
/// dependent inputs are accessible, which never blocks a later placement
/// because accessibility is monotone.
///
/// Typing discipline: a value is accessible *in a domain*; placing a fact
/// makes every (value, attribute-domain) pair of the fact accessible.
/// Independent methods accept arbitrary input values (the paper's "free
/// guess", remark (iii) of Section 4); dependent methods require every
/// input to be accessible in the input attribute's domain.
ReachResult CheckSetReachability(const ConfigView& conf,
                                 const AccessMethodSet& acs,
                                 const std::vector<Fact>& facts);

/// Builds an explicit access path realizing a reachable fact set (one
/// access per fact, in the greedy order). Fails if the set is unreachable.
Result<std::vector<AccessStep>> BuildRealizingSteps(
    const ConfigView& conf, const AccessMethodSet& acs,
    const std::vector<Fact>& facts);

/// The domains in which fresh values can be produced from `conf`: the least
/// fixpoint of "some access method has all dependent input domains already
/// producible-or-inhabited, and the domain appears among its non-input
/// attributes". Independent methods need no inhabited inputs.
std::unordered_set<DomainId> ProducibleDomains(const ConfigView& conf,
                                               const AccessMethodSet& acs);

}  // namespace rar

#endif  // RAR_ACCESS_REACHABILITY_H_
