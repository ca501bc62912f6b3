#include "relevance/relevance.h"

#include <vector>

#include "relational/overlay.h"
#include "relevance/head_instantiator.h"

namespace rar {

namespace {

// The containment options of the dependent deciders: they only consume
// the containment verdict, so witness construction (which materializes
// the base) stays off the check path.
ContainmentOptions VerdictOnly(const RelevanceOptions& options) {
  ContainmentOptions copts = options.containment;
  copts.build_witness = false;
  return copts;
}

}  // namespace

Result<bool> RelevanceAnalyzer::LongTerm(const ConfigView& conf,
                                         const Access& access,
                                         const UnionQuery& query,
                                         const RelevanceOptions& options) const {
  if (!query.IsBoolean()) {
    return Status::InvalidArgument(
        "LongTerm expects a Boolean query; use LongTermKAry");
  }
  if (acs_.AllIndependent()) {
    return LongTermIndependent(conf, access, query, options);
  }
  // Boolean accesses take the paper's Prop 3.5 / 3.4 route; accesses with
  // output attributes take the truncation-cut extension (exact except for
  // the achievable-but-uncuttable corner, which reports an error).
  return IsLongTermRelevantDependentGeneral(conf, acs_, access, query,
                                            VerdictOnly(options));
}

Result<bool> RelevanceAnalyzer::LongTermSearch(
    const ConfigView& conf, const Access& access, const UnionQuery& query,
    const RelevanceOptions& options, bool achievable) const {
  if (!query.IsBoolean()) {
    return Status::InvalidArgument(
        "LongTerm expects a Boolean query; use LongTermKAry");
  }
  if (acs_.AllIndependent()) {
    return LongTermIndependent(conf, access, query, options);
  }
  return LongTermDependentSearch(conf, acs_, access, query,
                                 VerdictOnly(options), achievable);
}

Result<bool> RelevanceAnalyzer::Achievable(
    const ConfigView& conf, const UnionQuery& query,
    const RelevanceOptions& options) const {
  return IsAchievable(conf, acs_, query, VerdictOnly(options));
}

Result<bool> RelevanceAnalyzer::LongTermIndependent(
    const ConfigView& conf, const Access& access, const UnionQuery& query,
    const RelevanceOptions& options) const {
  if (options.use_fast_paths && query.disjuncts.size() == 1) {
    std::optional<bool> fast =
        LtrSingleOccurrenceFastPath(conf, acs_, access, query.disjuncts[0]);
    if (fast.has_value()) return *fast;
  }
  return IsLongTermRelevantIndependent(conf, acs_, access, query);
}

namespace {

// Prop 2.2 head instantiation, shared by both k-ary wrappers: enumerate
// deduplicated head slot tuples over the typed active domain plus the
// instantiator's fresh pool (see relevance/head_instantiator.h) and hand
// each satisfiable Boolean instantiation to `decide` over the seeded view.
Result<bool> ForEachHeadInstantiation(
    const Schema& schema, const ConfigView& conf, const UnionQuery& query,
    const std::function<Result<bool>(const UnionQuery&,
                                     const ConfigView&)>& decide) {
  HeadInstantiator inst(schema, query);
  RAR_RETURN_NOT_OK(inst.status());
  if (inst.arity() == 0) return decide(query, conf);

  OverlayConfiguration seeded(&conf);
  inst.SeedInto(&seeded);
  HeadCandidates candidates = inst.CollectCandidates(conf);

  Status inner_error = Status::OK();
  bool relevant =
      inst.ForEachBinding(candidates, [&](const std::vector<Value>& slots) {
        UnionQuery boolean_q = inst.Instantiate(slots);
        // Every disjunct collapsed (repeated head variables bound to
        // conflicting values): the tuple can never be certain.
        if (boolean_q.disjuncts.empty()) return false;
        Result<bool> r = decide(boolean_q, seeded);
        if (!r.ok()) {
          inner_error = r.status();
          return true;  // abort enumeration
        }
        return *r;
      });
  RAR_RETURN_NOT_OK(inner_error);
  return relevant;
}

}  // namespace

Result<bool> RelevanceAnalyzer::ImmediateKAry(const ConfigView& conf,
                                              const Access& access,
                                              const UnionQuery& query) const {
  return ForEachHeadInstantiation(
      schema_, conf, query,
      [&](const UnionQuery& q, const ConfigView& c) -> Result<bool> {
        return IsImmediatelyRelevant(c, acs_, access, q);
      });
}

Result<bool> RelevanceAnalyzer::LongTermKAry(
    const ConfigView& conf, const Access& access, const UnionQuery& query,
    const RelevanceOptions& options) const {
  return ForEachHeadInstantiation(
      schema_, conf, query,
      [&](const UnionQuery& q, const ConfigView& c) -> Result<bool> {
        return LongTerm(c, access, q, options);
      });
}

}  // namespace rar
