#include "access/reachability.h"

#include <unordered_set>

namespace rar {

namespace {

// The accessible typed values of one greedy fixpoint: the configuration's
// own active domain, probed through AdomContains and never copied, plus
// the values placed facts add, hashed in insertion order (the witness
// search consumes them newest-first to extend chain frontiers before
// revisiting old values).
class AccessibleSet {
 public:
  explicit AccessibleSet(const ConfigView& conf) : conf_(conf) {}

  bool Contains(const TypedValue& tv) const {
    return conf_.AdomContains(tv.value, tv.domain) || added_.count(tv) > 0;
  }
  void Insert(const TypedValue& tv) {
    if (conf_.AdomContains(tv.value, tv.domain)) return;
    if (added_.insert(tv).second) added_order_.push_back(tv);
  }
  std::vector<TypedValue> TakeAdded() { return std::move(added_order_); }

 private:
  const ConfigView& conf_;
  std::unordered_set<TypedValue, TypedValueHash> added_;
  std::vector<TypedValue> added_order_;
};

// True when `fact` can be placed now via `m`: every dependent input value is
// accessible in the input attribute's domain. Independent methods accept any
// input values (free guesses).
bool Placeable(const Schema& schema, const AccessMethod& m, const Fact& fact,
               const AccessibleSet& accessible) {
  if (!m.dependent) return true;
  const Relation& rel = schema.relation(fact.relation);
  for (int pos : m.input_positions) {
    TypedValue tv{fact.values[pos], rel.attributes[pos].domain};
    if (!accessible.Contains(tv)) return false;
  }
  return true;
}

void MakeAccessible(const Schema& schema, const Fact& fact,
                    AccessibleSet* accessible) {
  const Relation& rel = schema.relation(fact.relation);
  for (int pos = 0; pos < fact.arity(); ++pos) {
    accessible->Insert(TypedValue{fact.values[pos],
                                  rel.attributes[pos].domain});
  }
}

}  // namespace

ReachResult CheckSetReachability(const ConfigView& conf,
                                 const AccessMethodSet& acs,
                                 const std::vector<Fact>& facts) {
  const Schema& schema = *acs.schema();
  ReachResult result;

  AccessibleSet accessible(conf);

  std::vector<int> pending;
  for (int i = 0; i < static_cast<int>(facts.size()); ++i) {
    if (conf.Contains(facts[i])) continue;  // already known: nothing to do
    pending.push_back(i);
  }

  bool progress = true;
  while (progress && !pending.empty()) {
    progress = false;
    for (size_t pi = 0; pi < pending.size();) {
      const Fact& f = facts[pending[pi]];
      AccessMethodId placed_with = kInvalidId;
      for (AccessMethodId mid : acs.MethodsOf(f.relation)) {
        if (Placeable(schema, acs.method(mid), f, accessible)) {
          placed_with = mid;
          break;
        }
      }
      if (placed_with != kInvalidId) {
        result.order.push_back(pending[pi]);
        result.methods.push_back(placed_with);
        MakeAccessible(schema, f, &accessible);
        pending[pi] = pending.back();
        pending.pop_back();
        progress = true;
      } else {
        ++pi;
      }
    }
  }

  result.accessible = accessible.TakeAdded();

  if (pending.empty()) {
    result.reachable = true;
    return result;
  }

  result.reachable = false;
  result.unplaced = pending;
  std::unordered_set<TypedValue, TypedValueHash> missing_seen;
  for (int idx : pending) {
    const Fact& f = facts[idx];
    const Relation& rel = schema.relation(f.relation);
    for (AccessMethodId mid : acs.MethodsOf(f.relation)) {
      const AccessMethod& m = acs.method(mid);
      if (!m.dependent) continue;
      for (int pos : m.input_positions) {
        TypedValue tv{f.values[pos], rel.attributes[pos].domain};
        if (!accessible.Contains(tv) && missing_seen.insert(tv).second) {
          result.missing_inputs.push_back(tv);
        }
      }
    }
  }
  return result;
}

Result<std::vector<AccessStep>> BuildRealizingSteps(
    const ConfigView& conf, const AccessMethodSet& acs,
    const std::vector<Fact>& facts) {
  ReachResult reach = CheckSetReachability(conf, acs, facts);
  if (!reach.reachable) {
    return Status::FailedPrecondition(
        "fact set is not reachable from the configuration");
  }
  std::vector<AccessStep> steps;
  steps.reserve(reach.order.size());
  for (size_t i = 0; i < reach.order.size(); ++i) {
    const Fact& f = facts[reach.order[i]];
    const AccessMethod& m = acs.method(reach.methods[i]);
    Access access;
    access.method = reach.methods[i];
    for (int pos : m.input_positions) access.binding.push_back(f.values[pos]);
    steps.push_back(AccessStep{std::move(access), {f}});
  }
  return steps;
}

std::unordered_set<DomainId> ProducibleDomains(const ConfigView& conf,
                                               const AccessMethodSet& acs) {
  const Schema& schema = *acs.schema();
  std::unordered_set<DomainId> inhabited;
  for (const TypedValue& tv : conf.AdomEntries()) inhabited.insert(tv.domain);

  std::unordered_set<DomainId> producible;
  auto available = [&](DomainId d) {
    return inhabited.count(d) > 0 || producible.count(d) > 0;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t mid = 0; mid < acs.size(); ++mid) {
      const AccessMethod& m = acs.method(static_cast<AccessMethodId>(mid));
      const Relation& rel = schema.relation(m.relation);
      if (m.dependent) {
        bool inputs_ok = true;
        for (int pos : m.input_positions) {
          if (!available(rel.attributes[pos].domain)) {
            inputs_ok = false;
            break;
          }
        }
        if (!inputs_ok) continue;
        // Fresh values can appear at non-input positions only.
        for (int pos = 0; pos < rel.arity(); ++pos) {
          if (m.IsInputPosition(pos)) continue;
          if (producible.insert(rel.attributes[pos].domain).second) {
            changed = true;
          }
        }
      } else {
        // Independent methods: inputs are free guesses, so every position
        // (input or output) can carry a fresh value.
        for (int pos = 0; pos < rel.arity(); ++pos) {
          if (producible.insert(rel.attributes[pos].domain).second) {
            changed = true;
          }
        }
      }
    }
  }
  return producible;
}

}  // namespace rar
