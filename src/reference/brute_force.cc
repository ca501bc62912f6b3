#include "reference/brute_force.h"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>

#include "access/path.h"
#include "query/eval.h"
#include "relational/overlay.h"
#include "util/combinatorics.h"

namespace rar {

namespace {

// Canonical state key for configuration dedup: sorted fact encodings.
std::string ConfigKey(const ConfigView& conf) {
  std::vector<Fact> facts = conf.AllFacts();
  std::sort(facts.begin(), facts.end());
  std::string key;
  for (const Fact& f : facts) {
    key += std::to_string(f.relation);
    key += '(';
    for (const Value& v : f.values) {
      key += std::to_string(v.Packed());
      key += ',';
    }
    key += ')';
  }
  return key;
}

}  // namespace

BoundedUniverse::BoundedUniverse(const ConfigView& conf,
                                 const AccessMethodSet& acs,
                                 int extra_constants_per_domain,
                                 const std::vector<TypedValue>& extra_values)
    : schema_(acs.schema()), acs_(&acs) {
  values_by_domain_.resize(schema_->num_domains());
  for (DomainId d = 0; d < schema_->num_domains(); ++d) {
    values_by_domain_[d] = conf.AdomOfDomain(d).ToVector();
    for (int i = 0; i < extra_constants_per_domain; ++i) {
      values_by_domain_[d].push_back(
          schema_->MintFreshConstant("u_" + schema_->domain_name(d)));
    }
  }
  for (const TypedValue& tv : extra_values) {
    if (tv.domain >= values_by_domain_.size()) continue;
    auto& values = values_by_domain_[tv.domain];
    bool present = false;
    for (const Value& v : values) present |= (v == tv.value);
    if (!present) values.push_back(tv.value);
  }
}

namespace {

// Typed binding values of an access (for universe extension).
std::vector<TypedValue> BindingValues(const AccessMethodSet& acs,
                                      const Access& access) {
  const AccessMethod& m = acs.method(access.method);
  const Relation& rel = acs.schema()->relation(m.relation);
  std::vector<TypedValue> out;
  for (int i = 0; i < m.num_inputs(); ++i) {
    out.push_back(TypedValue{access.binding[i],
                             rel.attributes[m.input_positions[i]].domain});
  }
  return out;
}

}  // namespace

const std::vector<Value>& BoundedUniverse::ValuesOf(DomainId domain) const {
  return values_by_domain_[domain];
}

std::vector<Fact> BoundedUniverse::AllFactsOf(RelationId rel) const {
  const Relation& r = schema_->relation(rel);
  std::vector<int> sizes;
  sizes.reserve(r.arity());
  for (const Attribute& attr : r.attributes) {
    sizes.push_back(static_cast<int>(values_by_domain_[attr.domain].size()));
  }
  std::vector<Fact> out;
  ForEachProduct(sizes, [&](const std::vector<int>& choice) {
    Fact f;
    f.relation = rel;
    f.values.reserve(choice.size());
    for (size_t i = 0; i < choice.size(); ++i) {
      f.values.push_back(
          values_by_domain_[r.attributes[i].domain][choice[i]]);
    }
    out.push_back(std::move(f));
    return false;
  });
  return out;
}

std::vector<Fact> BoundedUniverse::FactsMatching(const Access& access) const {
  const AccessMethod& m = acs_->method(access.method);
  const Relation& r = schema_->relation(m.relation);
  // Free positions range over the universe; input positions are pinned.
  std::vector<int> free_positions;
  std::vector<int> sizes;
  for (int pos = 0; pos < r.arity(); ++pos) {
    if (!m.IsInputPosition(pos)) {
      free_positions.push_back(pos);
      sizes.push_back(
          static_cast<int>(values_by_domain_[r.attributes[pos].domain].size()));
    }
  }
  std::vector<Fact> out;
  ForEachProduct(sizes, [&](const std::vector<int>& choice) {
    Fact f;
    f.relation = m.relation;
    f.values.assign(r.arity(), Value());
    for (int i = 0; i < m.num_inputs(); ++i) {
      f.values[m.input_positions[i]] = access.binding[i];
    }
    for (size_t i = 0; i < free_positions.size(); ++i) {
      int pos = free_positions[i];
      f.values[pos] = values_by_domain_[r.attributes[pos].domain][choice[i]];
    }
    out.push_back(std::move(f));
    return false;
  });
  return out;
}

bool BruteForceIR(const ConfigView& conf, const AccessMethodSet& acs,
                  const Access& access, const UnionQuery& query,
                  const BruteForceOptions& options) {
  if (!CheckWellFormed(conf, acs, access).ok()) return false;
  // A Boolean query's only possible answer is the empty tuple: decide it
  // with EvalBool rather than enumerating every homomorphism.
  const bool boolean = query.IsBoolean();
  if (boolean && EvalBool(query, conf)) return false;
  BoundedUniverse universe(conf, acs, options.extra_constants_per_domain,
                           BindingValues(acs, access));
  OverlayConfiguration after(&conf);
  for (const Fact& f : universe.FactsMatching(access)) after.AddFact(f);
  if (boolean) return EvalBool(query, after);
  std::set<std::vector<Value>> before = CertainAnswers(query, conf);
  std::set<std::vector<Value>> after_answers = CertainAnswers(query, after);
  for (const std::vector<Value>& t : after_answers) {
    if (before.count(t) == 0) return true;
  }
  return false;
}

namespace {

// Depth-first search over continuation paths for BruteForceLTR. The
// evolving configuration is one overlay over the start configuration,
// extended and retracted (AddFact/PopFact) in lockstep with the path; the
// truncation replays into a second scratch overlay — the base is never
// copied.
class LtrSearch {
 public:
  LtrSearch(const ConfigView& conf, const AccessMethodSet& acs,
            const UnionQuery& query, const BoundedUniverse& universe,
            const BruteForceOptions& options)
      : acs_(acs), query_(query), universe_(universe), options_(options),
        trunc_(&conf) {}

  // `path` must already contain the first access step, and `config` must
  // overlay the same base configuration the path starts from.
  bool Search(AccessPath* path, OverlayConfiguration* config) {
    nodes_ = 0;
    return Dfs(path, config, 0);
  }

 private:
  bool Dfs(AccessPath* path, OverlayConfiguration* config, int depth) {
    if (options_.node_budget > 0 && ++nodes_ > options_.node_budget) {
      return false;
    }
    if (EvalBool(query_, *config)) {
      // Witness iff the query fails after the truncated path. Extensions
      // cannot succeed once the truncation satisfies the query (the
      // truncated configuration only grows), so stop either way.
      Status st = path->ReplayTruncationInto(&trunc_);
      return st.ok() && !EvalBool(query_, trunc_);
    }
    if (depth >= options_.max_steps) return false;

    const Schema& schema = *acs_.schema();
    for (AccessMethodId mid = 0; mid < acs_.size(); ++mid) {
      const AccessMethod& m = acs_.method(mid);
      const Relation& rel = schema.relation(m.relation);
      // Candidate bindings: typed active domain for dependent methods,
      // whole universe for independent ones. Materialized: the overlay
      // grows inside the loop, which would invalidate borrowed slices.
      std::vector<int> sizes;
      std::vector<std::vector<Value>> candidates;
      for (int pos : m.input_positions) {
        DomainId dom = rel.attributes[pos].domain;
        candidates.push_back(m.dependent ? config->AdomOfDomain(dom).ToVector()
                                         : universe_.ValuesOf(dom));
        sizes.push_back(static_cast<int>(candidates.back().size()));
      }
      bool found = ForEachProduct(sizes, [&](const std::vector<int>& choice) {
        Access access;
        access.method = mid;
        for (size_t i = 0; i < choice.size(); ++i) {
          access.binding.push_back(candidates[i][choice[i]]);
        }
        for (const Fact& f : universe_.FactsMatching(access)) {
          if (config->Contains(f)) continue;
          config->AddFact(f);
          path->Append(AccessStep{access, {f}});
          bool ok = Dfs(path, config, depth + 1);
          path->PopBack();
          config->PopFact();
          if (ok) return true;
        }
        return false;
      });
      if (found) return true;
    }
    return false;
  }

  const AccessMethodSet& acs_;
  const UnionQuery& query_;
  const BoundedUniverse& universe_;
  const BruteForceOptions& options_;
  OverlayConfiguration trunc_;
  long nodes_ = 0;
};

}  // namespace

bool BruteForceLTR(const ConfigView& conf, const AccessMethodSet& acs,
                   const Access& access, const UnionQuery& query,
                   const BruteForceOptions& options) {
  if (!CheckWellFormed(conf, acs, access).ok()) return false;
  BoundedUniverse universe(conf, acs, options.extra_constants_per_domain,
                           BindingValues(acs, access));
  std::vector<Fact> matching = universe.FactsMatching(access);

  // Enumerate non-empty first responses up to the size bound; one overlay
  // serves every subset (Reset between candidates).
  const int n = static_cast<int>(matching.size());
  if (n > 62) return false;  // guarded by test sizing
  LtrSearch search(conf, acs, query, universe, options);
  OverlayConfiguration config(&conf);
  return ForEachSubset(n, [&](uint64_t mask) {
    int bits = __builtin_popcountll(mask);
    if (bits == 0 || bits > options.max_first_response) return false;
    std::vector<Fact> response;
    config.Reset();
    for (int i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) {
        response.push_back(matching[i]);
        config.AddFact(matching[i]);
      }
    }
    AccessPath path(&conf, &acs);
    path.Append(AccessStep{access, response});
    return search.Search(&path, &config);
  });
}

bool BruteForceNotContained(const ConfigView& conf,
                            const AccessMethodSet& acs, const UnionQuery& q1,
                            const UnionQuery& q2,
                            const BruteForceOptions& options) {
  std::vector<TypedValue> query_constants = QueryConstants(q1, *acs.schema());
  for (const TypedValue& tv : QueryConstants(q2, *acs.schema())) {
    query_constants.push_back(tv);
  }
  BoundedUniverse universe(conf, acs, options.extra_constants_per_domain,
                           query_constants);
  const Schema& schema = *acs.schema();

  std::unordered_set<std::string> visited;
  long nodes = 0;

  // One overlay over the start configuration, extended and retracted in
  // lockstep with the DFS (the base is never copied).
  OverlayConfiguration config(&conf);
  std::function<bool(int)> dfs = [&](int depth) -> bool {
    if (options.node_budget > 0 && ++nodes > options.node_budget) {
      return false;
    }
    if (!visited.insert(ConfigKey(config)).second) return false;
    if (EvalBool(q1, config) && !EvalBool(q2, config)) return true;
    if (depth >= options.max_steps) return false;

    for (AccessMethodId mid = 0; mid < acs.size(); ++mid) {
      const AccessMethod& m = acs.method(mid);
      const Relation& rel = schema.relation(m.relation);
      // Materialized: the overlay grows inside the loop.
      std::vector<int> sizes;
      std::vector<std::vector<Value>> candidates;
      for (int pos : m.input_positions) {
        DomainId dom = rel.attributes[pos].domain;
        candidates.push_back(m.dependent ? config.AdomOfDomain(dom).ToVector()
                                         : universe.ValuesOf(dom));
        sizes.push_back(static_cast<int>(candidates.back().size()));
      }
      bool found = ForEachProduct(sizes, [&](const std::vector<int>& choice) {
        Access access;
        access.method = mid;
        for (size_t i = 0; i < choice.size(); ++i) {
          access.binding.push_back(candidates[i][choice[i]]);
        }
        for (const Fact& f : universe.FactsMatching(access)) {
          if (config.Contains(f)) continue;
          config.AddFact(f);
          bool ok = dfs(depth + 1);
          config.PopFact();
          if (ok) return true;
        }
        return false;
      });
      if (found) return true;
    }
    return false;
  };
  return dfs(0);
}

bool BruteForceIsCritical(const Schema& schema, const UnionQuery& q,
                          const Fact& t,
                          const std::vector<Value>& domain_values,
                          long node_budget) {
  // Build every fact of t's relation over the value set.
  const Relation& rel = schema.relation(t.relation);
  std::vector<int> sizes(rel.arity(),
                         static_cast<int>(domain_values.size()));
  std::vector<Fact> others;
  ForEachProduct(sizes, [&](const std::vector<int>& choice) {
    Fact f;
    f.relation = t.relation;
    for (int c : choice) f.values.push_back(domain_values[c]);
    if (!(f == t)) others.push_back(std::move(f));
    return false;
  });

  const int n = static_cast<int>(others.size());
  if (n > 62) return false;  // guarded by test sizing
  long nodes = 0;
  return ForEachSubset(n, [&](uint64_t mask) {
    if (node_budget > 0 && ++nodes > node_budget) return false;
    Configuration without(&schema);
    for (int i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) without.AddFact(others[i]);
    }
    if (EvalBool(q, without)) return false;  // monotone: adding t keeps true
    OverlayConfiguration with(&without);
    with.AddFact(t);
    return EvalBool(q, with);
  });
}

}  // namespace rar
