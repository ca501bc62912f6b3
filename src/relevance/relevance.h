// Top-level relevance facade: dispatching, k-ary reduction (Prop 2.2).
//
// `RelevanceAnalyzer` is the public entry point a query mediator uses:
// it decides IR and LTR for Boolean queries, dispatching LTR to the
// independent-case Σ2P engine (with the Prop 4.3 fast path) or to the
// dependent-case containment-backed engines, and lifts k-ary queries to
// the Boolean case by instantiating head tuples over the active domain
// plus fresh constants (Prop 2.2).
#ifndef RAR_RELEVANCE_RELEVANCE_H_
#define RAR_RELEVANCE_RELEVANCE_H_

#include "containment/access_containment.h"
#include "query/footprint.h"
#include "relevance/immediate.h"
#include "relevance/ltr_dependent.h"
#include "relevance/ltr_independent.h"

namespace rar {

/// Options for the LTR deciders (the dependent case delegates to the
/// containment witness search).
struct RelevanceOptions {
  ContainmentOptions containment;
  /// Use the Prop 4.3 single-occurrence fast path when applicable.
  bool use_fast_paths = true;
};

/// \brief Facade bundling the relevance deciders of Sections 4 and 5.
class RelevanceAnalyzer {
 public:
  RelevanceAnalyzer(const Schema& schema, const AccessMethodSet& acs)
      : schema_(schema), acs_(acs) {}

  /// Immediate relevance of a Boolean query (Prop 4.1; same procedure for
  /// dependent and independent methods).
  bool Immediate(const ConfigView& conf, const Access& access,
                 const UnionQuery& query) const {
    return IsImmediatelyRelevant(conf, acs_, access, query);
  }

  /// Long-term relevance of a Boolean query. Dispatch: all methods
  /// independent -> Σ2P engine (Prop 4.5), with the Prop 4.3 fast path for
  /// single-occurrence CQs; otherwise the containment-backed engines
  /// (Prop 3.5 for CQs, Prop 3.4 for UCQs).
  Result<bool> LongTerm(const ConfigView& conf, const Access& access,
                        const UnionQuery& query,
                        const RelevanceOptions& options = {}) const;

  /// LongTerm's search alone: under dependent methods it skips the
  /// deciders' well-formedness and certainty gates
  /// (LongTermDependentSearch). Only meaningful when `access` is
  /// well-formed at `conf` and `query` is not certain there — the
  /// RelevanceEngine's check core calls it after establishing both under
  /// its check locks. Same verdict as LongTerm otherwise. `achievable`
  /// passes on what the caller knows: under dependent methods, an access
  /// with outputs of a query achievable from `conf` (Achievable) is then
  /// decided by the truncation cut alone, without a containment search.
  Result<bool> LongTermSearch(const ConfigView& conf, const Access& access,
                              const UnionQuery& query,
                              const RelevanceOptions& options,
                              bool achievable) const;

  /// Whether some configuration reachable from `conf` satisfies the
  /// Boolean `query` (IsAchievable, verdict only). Once true it stays
  /// true as `conf` grows — the RelevanceEngine's achievability memo.
  Result<bool> Achievable(const ConfigView& conf, const UnionQuery& query,
                          const RelevanceOptions& options) const;

  /// Prop 2.2: k-ary immediate relevance via head instantiation.
  Result<bool> ImmediateKAry(const ConfigView& conf, const Access& access,
                             const UnionQuery& query) const;

  /// Prop 2.2: k-ary long-term relevance via head instantiation.
  Result<bool> LongTermKAry(const ConfigView& conf, const Access& access,
                            const UnionQuery& query,
                            const RelevanceOptions& options = {}) const;

  /// The relation footprint of an IR check: the decider reads only facts
  /// of the query's relations plus the accessed relation (the well-
  /// formedness Adom probe is the caller's concern — it is monotone, so a
  /// verdict computed on a well-formed access never needs Adom
  /// revalidation). The first overload takes the query's memoized
  /// footprint (callers that check repeatedly should not re-derive it per
  /// check); the second derives it.
  static RelationFootprint ImmediateFootprint(
      const RelationFootprint& query_footprint, RelationId accessed) {
    RelationFootprint fp = query_footprint.WithRelation(accessed);
    fp.adom_sensitive = false;
    return fp;
  }
  static RelationFootprint ImmediateFootprint(const UnionQuery& query,
                                              RelationId accessed) {
    return ImmediateFootprint(RelationFootprint::Of(query), accessed);
  }

  /// The footprint of an LTR check: the same relations, plus the typed
  /// active domain — both LTR engines enumerate Adom values (canonical
  /// assignments, reachability closures, CM-containment relative to the
  /// existing constants), and Adom grows with facts of *every* relation.
  static RelationFootprint LongTermFootprint(
      const RelationFootprint& query_footprint, RelationId accessed) {
    RelationFootprint fp = query_footprint.WithRelation(accessed);
    fp.adom_sensitive = true;
    return fp;
  }
  static RelationFootprint LongTermFootprint(const UnionQuery& query,
                                             RelationId accessed) {
    return LongTermFootprint(RelationFootprint::Of(query), accessed);
  }

 private:
  /// LongTerm under an all-independent method set (the Prop 4.3 fast
  /// path, then the Prop 4.5 engine); its gates are part of the search.
  Result<bool> LongTermIndependent(const ConfigView& conf,
                                   const Access& access,
                                   const UnionQuery& query,
                                   const RelevanceOptions& options) const;

  const Schema& schema_;
  const AccessMethodSet& acs_;
};

}  // namespace rar

#endif  // RAR_RELEVANCE_RELEVANCE_H_
