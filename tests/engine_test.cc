// Tests for the RelevanceEngine runtime: decision-cache semantics, the
// incremental access frontier, and — the load-bearing property —
// agreement between the engine's cached/incremental/concurrent verdicts
// and the direct one-shot deciders in relevance/ on randomized scenario
// streams, including cache invalidation after configuration growth.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <list>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/decision_cache.h"
#include "engine/engine.h"
#include "engine/frontier.h"
#include "query/eval.h"
#include "reference/brute_force.h"
#include "relevance/head_instantiator.h"
#include "relevance/immediate.h"
#include "relevance/relevance.h"
#include "sim/deep_web.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace rar {
namespace {

// ---------------------------------------------------------------- cache

TEST(DecisionCacheTest, StampedEntriesExpireOnFootprintGrowth) {
  DecisionCache cache;
  const Access access{0, {Value::Constant(1)}};
  const DecisionKey key(0, CheckKind::kImmediate, access);
  // Footprint stamp: versions of the two footprint relations.
  cache.Insert(key, /*relevant=*/true, /*sticky=*/false, VersionStamp{3, 7},
               /*epoch=*/10);

  auto probe = cache.Lookup(key, VersionStamp{3, 7}, 10);
  ASSERT_EQ(probe.status, DecisionCache::ProbeStatus::kHit);
  EXPECT_TRUE(probe.hit.relevant);
  EXPECT_FALSE(probe.hit.cross_epoch);

  // Growth elsewhere moves the global epoch but not the footprint stamp:
  // still a hit, flagged as one the global-epoch scheme would have lost.
  probe = cache.Lookup(key, VersionStamp{3, 7}, 12);
  ASSERT_EQ(probe.status, DecisionCache::ProbeStatus::kHit);
  EXPECT_TRUE(probe.hit.cross_epoch);

  // Growth of a footprint relation invalidates; the stale component is
  // reported and the entry is dropped.
  probe = cache.Lookup(key, VersionStamp{3, 8}, 13);
  EXPECT_EQ(probe.status, DecisionCache::ProbeStatus::kStale);
  EXPECT_EQ(probe.stale_component, 1);
  EXPECT_EQ(cache.Lookup(key, VersionStamp{3, 8}, 13).status,
            DecisionCache::ProbeStatus::kMiss);
}

TEST(DecisionCacheTest, StickyEntriesSurviveGrowth) {
  DecisionCache cache;
  const Access access{2, {}};
  const DecisionKey key(1, CheckKind::kLongTerm, access);
  cache.Insert(key, /*relevant=*/false, /*sticky=*/true, VersionStamp{0},
               /*epoch=*/0);

  auto probe = cache.Lookup(key, VersionStamp{1000}, 1000);
  ASSERT_EQ(probe.status, DecisionCache::ProbeStatus::kHit);
  EXPECT_FALSE(probe.hit.relevant);
  EXPECT_TRUE(probe.hit.sticky);

  // Sticky entries are strictly stronger: a later non-sticky insert for
  // the same key must not downgrade them.
  cache.Insert(key, /*relevant=*/true, /*sticky=*/false, VersionStamp{1001},
               1001);
  probe = cache.Lookup(key, VersionStamp{2000}, 2000);
  ASSERT_EQ(probe.status, DecisionCache::ProbeStatus::kHit);
  EXPECT_FALSE(probe.hit.relevant);
}

TEST(DecisionCacheTest, LruCapEvictsColdestEntries) {
  DecisionCache cache(/*capacity=*/2);
  const Access a0{0, {}};
  const Access a1{1, {}};
  const Access a2{2, {}};
  const DecisionKey k0(0, CheckKind::kImmediate, a0);
  const DecisionKey k1(0, CheckKind::kImmediate, a1);
  const DecisionKey k2(0, CheckKind::kImmediate, a2);
  cache.Insert(k0, true, false, VersionStamp{1}, 1);
  cache.Insert(k1, true, false, VersionStamp{1}, 1);
  // Touch k0 so k1 is the LRU tail when k2 overflows the cache.
  EXPECT_EQ(cache.Lookup(k0, VersionStamp{1}, 1).status,
            DecisionCache::ProbeStatus::kHit);
  cache.Insert(k2, false, false, VersionStamp{1}, 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(k1, VersionStamp{1}, 1).status,
            DecisionCache::ProbeStatus::kMiss);
  EXPECT_EQ(cache.Lookup(k0, VersionStamp{1}, 1).status,
            DecisionCache::ProbeStatus::kHit);
  EXPECT_EQ(cache.Lookup(k2, VersionStamp{1}, 1).status,
            DecisionCache::ProbeStatus::kHit);
}

// The decision cache's contract, as the node-based cache it replaced
// implemented it: a std::map owns keys and entries, a std::list keeps
// recency (front = most recently used), stale entries are dropped on
// lookup, and the LRU tail is evicted past capacity.
class ReferenceDecisionCache {
 public:
  struct Key {
    QueryId query;
    CheckKind kind;
    AccessMethodId method;
    std::vector<Value> binding;

    bool operator<(const Key& o) const {
      if (query != o.query) return query < o.query;
      if (kind != o.kind) return kind < o.kind;
      if (method != o.method) return method < o.method;
      return std::lexicographical_compare(
          binding.begin(), binding.end(), o.binding.begin(), o.binding.end(),
          [](const Value& a, const Value& b) {
            return a.Packed() < b.Packed();
          });
    }
  };

  explicit ReferenceDecisionCache(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  DecisionCache::Probe Lookup(const Key& key, const VersionStamp& stamp,
                              uint64_t epoch) {
    DecisionCache::Probe probe;
    auto it = map_.find(key);
    if (it == map_.end()) return probe;
    Entry& e = it->second;
    if (!e.sticky && e.stamp != stamp) {
      probe.status = DecisionCache::ProbeStatus::kStale;
      size_t n = std::min(e.stamp.size(), stamp.size());
      size_t i = 0;
      while (i < n && e.stamp[i] == stamp[i]) ++i;
      probe.stale_component = static_cast<int>(i);
      lru_.erase(e.lru_it);
      map_.erase(it);
      return probe;
    }
    probe.status = DecisionCache::ProbeStatus::kHit;
    probe.hit = DecisionCache::Hit{e.relevant, e.sticky, e.epoch != epoch};
    lru_.splice(lru_.begin(), lru_, e.lru_it);
    return probe;
  }

  void Insert(const Key& key, bool relevant, bool sticky,
              const VersionStamp& stamp, uint64_t epoch) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      Entry& e = it->second;
      if (e.sticky && !sticky) return;
      e.relevant = relevant;
      e.sticky = sticky;
      e.stamp = stamp;
      e.epoch = epoch;
      lru_.splice(lru_.begin(), lru_, e.lru_it);
      return;
    }
    auto slot = map_.emplace(key, Entry{relevant, sticky, stamp, epoch, {}})
                    .first;
    lru_.push_front(&slot->first);
    slot->second.lru_it = lru_.begin();
    while (map_.size() > capacity_) {
      const Key* coldest = lru_.back();
      lru_.pop_back();
      map_.erase(*coldest);
      ++evictions_;
    }
  }

  size_t size() const { return map_.size(); }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    bool relevant;
    bool sticky;
    VersionStamp stamp;
    uint64_t epoch;
    std::list<const Key*>::iterator lru_it;
  };

  size_t capacity_;
  uint64_t evictions_ = 0;
  std::list<const Key*> lru_;
  std::map<Key, Entry> map_;
};

// Seeded random Lookup/Insert sequences over ~64 keys must leave the cache
// and the reference model in the same state after every call: same probe
// (status, stale component, verdict flags), same size, same evictions.
// Keys include pairs that differ only in binding order, kind or method,
// and two keys whose hashes agree in the low 32 bits — everything a table
// slot keeps — so only the full key compare tells them apart.
TEST(DecisionCacheTest, MatchesReferenceModel) {
  std::deque<Access> accesses;  // stable storage the keys borrow
  struct KeySpec {
    QueryId query;
    CheckKind kind;
    const Access* access;
    size_t stamp_len;
  };
  std::vector<KeySpec> specs;
  Rng rng(20261019);
  auto add = [&](QueryId q, CheckKind kind, Access a) {
    accesses.push_back(std::move(a));
    specs.push_back(KeySpec{q, kind, &accesses.back(),
                            static_cast<size_t>(rng.Range(1, 4))});
  };
  auto random_binding = [&](size_t len) {
    std::vector<Value> b;
    for (size_t i = 0; i < len; ++i) {
      b.push_back(Value::Constant(static_cast<uint32_t>(rng.Range(1, 5))));
    }
    return b;
  };
  while (specs.size() < 48) {
    const QueryId q = static_cast<QueryId>(rng.Below(3));
    const CheckKind kind =
        rng.Chance(0.5) ? CheckKind::kImmediate : CheckKind::kLongTerm;
    const AccessMethodId m = static_cast<AccessMethodId>(rng.Below(3));
    const size_t len = static_cast<size_t>(rng.Range(0, 3));
    std::vector<Value> binding = random_binding(len);
    add(q, kind, Access{m, binding});
    switch (rng.Below(4)) {
      case 0:  // reversed binding order
        if (len >= 2 && binding.front() != binding.back()) {
          std::vector<Value> rev(binding.rbegin(), binding.rend());
          add(q, kind, Access{m, rev});
        }
        break;
      case 1:  // other kind
        add(q,
            kind == CheckKind::kImmediate ? CheckKind::kLongTerm
                                          : CheckKind::kImmediate,
            Access{m, binding});
        break;
      case 2:  // other method
        add(q, kind, Access{static_cast<AccessMethodId>(m + 3), binding});
        break;
      default:
        break;
    }
  }
  // A pair of distinct keys whose hashes share their low 32 bits.
  {
    std::unordered_map<uint32_t, uint32_t> seen;
    for (uint32_t i = 0;; ++i) {
      const Access a{7, {Value::Constant(i & 0xffff),
                         Value::Constant(i >> 16)}};
      const uint32_t tag = static_cast<uint32_t>(
          DecisionKey(9, CheckKind::kImmediate, a).hash);
      auto [it, fresh] = seen.emplace(tag, i);
      if (fresh) continue;
      const uint32_t j = it->second;
      add(9, CheckKind::kImmediate,
          Access{7, {Value::Constant(j & 0xffff), Value::Constant(j >> 16)}});
      add(9, CheckKind::kImmediate, a);
      break;
    }
  }
  ASSERT_GE(specs.size(), 50u);
  ASSERT_LE(specs.size(), 80u);

  for (size_t capacity :
       {size_t{1}, size_t{2}, size_t{7}, DecisionCache::kDefaultCapacity}) {
    DecisionCache cache(capacity);
    ReferenceDecisionCache model(capacity);
    // The current footprint versions of each key, and the global epoch.
    std::vector<VersionStamp> current;
    for (const KeySpec& k : specs) current.emplace_back(k.stamp_len, 1);
    uint64_t epoch = 1;
    size_t stale_seen = 0;
    size_t hits_seen = 0;
    for (int step = 0; step < 12000; ++step) {
      if (rng.Chance(0.15)) {  // growth: bump one component of one key
        VersionStamp& st = current[rng.Below(current.size())];
        ++st[rng.Below(st.size())];
        ++epoch;
      }
      const size_t ki = rng.Below(specs.size());
      const KeySpec& k = specs[ki];
      const DecisionKey key(k.query, k.kind, *k.access);
      const ReferenceDecisionCache::Key ref_key{
          k.query, k.kind, k.access->method, k.access->binding};
      if (rng.Chance(0.5)) {
        const DecisionCache::Probe got = cache.Lookup(key, current[ki], epoch);
        const DecisionCache::Probe want =
            model.Lookup(ref_key, current[ki], epoch);
        ASSERT_EQ(got.status, want.status) << "step " << step;
        ASSERT_EQ(got.stale_component, want.stale_component) << step;
        ASSERT_EQ(got.hit.relevant, want.hit.relevant) << step;
        ASSERT_EQ(got.hit.sticky, want.hit.sticky) << step;
        ASSERT_EQ(got.hit.cross_epoch, want.hit.cross_epoch) << step;
        stale_seen += got.status == DecisionCache::ProbeStatus::kStale;
        hits_seen += got.status == DecisionCache::ProbeStatus::kHit;
      } else {
        const bool relevant = rng.Chance(0.5);
        const bool sticky = rng.Chance(0.1);
        VersionStamp stamp = current[ki];
        if (rng.Chance(0.2)) --stamp[rng.Below(stamp.size())];  // older
        cache.Insert(key, relevant, sticky, stamp, epoch);
        model.Insert(ref_key, relevant, sticky, stamp, epoch);
      }
      ASSERT_EQ(cache.size(), model.size()) << "step " << step;
      ASSERT_EQ(cache.evictions(), model.evictions()) << "step " << step;
    }
    EXPECT_GT(stale_seen, 0u) << "capacity " << capacity;
    EXPECT_GT(hits_seen, 0u) << "capacity " << capacity;
    if (capacity < specs.size()) {
      EXPECT_GT(cache.evictions(), 0u) << "capacity " << capacity;
    }
  }
}

// -------------------------------------------------------- version vectors

TEST(VersionVectorTest, FootprintStampsSelectSubVectors) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", std::vector<DomainId>{d});
  RelationId s = *schema->AddRelation("S", std::vector<DomainId>{d});
  Configuration conf(schema.get());
  Value a = schema->InternConstant("a");
  Value b = schema->InternConstant("b");
  conf.AddSeedConstant(a, d);

  VersionVector v0 = conf.Versions();
  EXPECT_EQ(v0.relation(r), 0u);
  EXPECT_EQ(v0.adom, 1u);

  // Growing S moves S's version (and Adom, via the fresh value b) but not
  // R's — the footprint stamp of an R-only, Adom-insensitive artifact is
  // unchanged, while the Adom-sensitive stamp moves.
  conf.AddFact(Fact(s, {b}));
  VersionVector v1 = conf.Versions();
  EXPECT_EQ(v1.relation(s), 1u);
  EXPECT_EQ(v1.adom, 2u);
  EXPECT_GT(v1.global(), v0.global());
  EXPECT_NE(v1.Fingerprint(), v0.Fingerprint());

  RelationFootprint r_only;
  r_only.Add(r);
  EXPECT_EQ(r_only.StampFrom(v0), r_only.StampFrom(v1));
  RelationFootprint r_adom = r_only;
  r_adom.adom_sensitive = true;
  EXPECT_NE(r_adom.StampFrom(v0), r_adom.StampFrom(v1));

  // The engine's lock-free mirror agrees with the configuration.
  AccessMethodSet acs(schema.get());
  (void)*acs.Add("s_free", s, {}, /*dependent=*/false);
  RelevanceEngine engine(*schema, acs, conf);
  EXPECT_EQ(engine.versions(), conf.Versions());
  EXPECT_EQ(engine.relation_version(s), 1u);
  EXPECT_EQ(engine.adom_version(), 2u);
}

// -------------------------------------------------------------- frontier

// Brute-force re-enumeration (the old Mediator::CandidateAccesses logic),
// used as the oracle for the incremental frontier.
std::vector<Access> EnumerateAll(const Schema& schema,
                                 const AccessMethodSet& acs,
                                 const Configuration& conf) {
  std::vector<Access> out;
  for (AccessMethodId mid = 0; mid < acs.size(); ++mid) {
    const AccessMethod& m = acs.method(mid);
    const Relation& rel = schema.relation(m.relation);
    std::vector<std::vector<Value>> slots;
    bool feasible = true;
    for (int pos : m.input_positions) {
      slots.push_back(conf.AdomOfDomain(rel.attributes[pos].domain).ToVector());
      if (slots.back().empty()) feasible = false;
    }
    if (!feasible) continue;
    std::vector<int> idx(slots.size(), 0);
    while (true) {
      Access access;
      access.method = mid;
      for (size_t i = 0; i < slots.size(); ++i) {
        access.binding.push_back(slots[i][idx[i]]);
      }
      out.push_back(access);
      int i = static_cast<int>(slots.size()) - 1;
      while (i >= 0 && ++idx[i] == static_cast<int>(slots[i].size())) {
        idx[i] = 0;
        --i;
      }
      if (i < 0) break;
    }
  }
  return out;
}

std::set<std::pair<AccessMethodId, std::vector<Value>>> AsSet(
    const std::vector<Access>& accesses) {
  std::set<std::pair<AccessMethodId, std::vector<Value>>> s;
  for (const Access& a : accesses) s.insert({a.method, a.binding});
  return s;
}

TEST(AccessFrontierTest, IncrementalEnumerationMatchesFullReEnumeration) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    RandomScenarioOptions sopts;
    sopts.num_relations = 3;
    sopts.num_facts = 2;
    sopts.independent_prob = 0.3;
    Scenario s = RandomScenario(&rng, sopts);

    AccessFrontier frontier(*s.schema, s.acs);
    Configuration conf = s.conf;
    frontier.Sync(conf);
    EXPECT_EQ(AsSet(frontier.Pending()),
              AsSet(EnumerateAll(*s.schema, s.acs, conf)))
        << "seed " << seed << " initial sync";

    // Grow the configuration a few times; the incremental frontier must
    // keep matching a from-scratch enumeration.
    std::vector<Value> constants = conf.AdomOfDomain(0).ToVector();
    for (int step = 0; step < 4; ++step) {
      RelationId rel =
          static_cast<RelationId>(rng.Below(s.schema->num_relations()));
      Fact f;
      f.relation = rel;
      for (int p = 0; p < s.schema->relation(rel).arity(); ++p) {
        // Mix known constants with fresh ones so the active domain grows.
        if (rng.Chance(0.5)) {
          f.values.push_back(rng.Pick(constants));
        } else {
          f.values.push_back(s.schema->InternConstant(
              "fresh_" + std::to_string(seed) + "_" + std::to_string(step) +
              "_" + std::to_string(p)));
        }
      }
      conf.AddFact(f);
      frontier.Sync(conf);
      EXPECT_EQ(AsSet(frontier.Pending()),
                AsSet(EnumerateAll(*s.schema, s.acs, conf)))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(AccessFrontierTest, PerformedAccessesLeaveThePendingSet) {
  ChainFamily f = MakeChainFamily(3);
  AccessFrontier frontier(*f.scenario.schema, f.scenario.acs);
  frontier.Sync(f.scenario.conf);
  std::vector<Access> pending = frontier.Pending();
  ASSERT_FALSE(pending.empty());
  size_t before = frontier.pending_size();
  frontier.MarkPerformed(pending[0]);
  EXPECT_TRUE(frontier.WasPerformed(pending[0]));
  EXPECT_EQ(frontier.pending_size(), before - 1);
  for (const Access& a : frontier.Pending()) {
    EXPECT_FALSE(a == pending[0]);
  }
}

TEST(AccessFrontierTest, RankedPutsHighScoresFirstStably) {
  ChainFamily f = MakeChainFamily(2);
  AccessFrontier frontier(*f.scenario.schema, f.scenario.acs);
  frontier.Sync(f.scenario.conf);
  std::vector<Access> pending = frontier.Pending();
  ASSERT_GE(pending.size(), 2u);
  const Access boosted = pending.back();
  std::vector<Access> ranked = frontier.Ranked(
      [&](const Access& a) { return a == boosted ? 10.0 : 1.0; });
  ASSERT_EQ(ranked.size(), pending.size());
  EXPECT_TRUE(ranked[0] == boosted);
  // Equal-score tail keeps discovery order (stable sort).
  size_t j = 0;
  for (const Access& a : pending) {
    if (a == boosted) continue;
    ++j;
    EXPECT_TRUE(ranked[j] == a);
  }
}

// ---------------------------------------------------------------- engine

// Builds a random hidden instance over the scenario's constants.
Configuration RandomHidden(Rng* rng, const Scenario& s, int num_facts) {
  Configuration hidden(s.schema.get());
  std::vector<Value> constants = s.conf.AdomOfDomain(0).ToVector();
  for (int i = 0; i < num_facts; ++i) {
    RelationId rel =
        static_cast<RelationId>(rng->Below(s.schema->num_relations()));
    Fact f;
    f.relation = rel;
    for (int p = 0; p < s.schema->relation(rel).arity(); ++p) {
      f.values.push_back(rng->Pick(constants));
    }
    hidden.AddFact(f);
  }
  return hidden;
}

// The property: on a stream of applied accesses, the engine's verdicts
// (cached, incremental, certainty-short-circuited) agree with the direct
// uncached deciders run against a mirrored configuration at every step.
void RunAgreementStream(double independent_prob, uint64_t first_seed,
                        uint64_t last_seed) {
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    Rng rng(seed);
    RandomScenarioOptions sopts;
    sopts.num_relations = 3;
    sopts.num_facts = 1;
    sopts.independent_prob = independent_prob;
    Scenario s = RandomScenario(&rng, sopts);
    Configuration hidden = RandomHidden(&rng, s, 6);

    ConjunctiveQuery cq = RandomQuery(&rng, s, 2, 2, 0.3);
    if (!cq.Validate(*s.schema).ok()) continue;
    UnionQuery q;
    q.disjuncts.push_back(cq);

    RelevanceEngine engine(*s.schema, s.acs, s.conf);
    auto qid = engine.RegisterQuery(q);
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();

    // The direct-decider mirror of the engine's evolving configuration.
    Configuration mirror = s.conf;
    RelevanceAnalyzer analyzer(*s.schema, s.acs);
    DeepWebSource source(s.schema.get(), &s.acs, hidden);

    for (int step = 0; step < 4; ++step) {
      std::vector<Access> candidates = engine.PendingAccesses();
      if (candidates.empty()) break;

      size_t checked = 0;
      for (const Access& a : candidates) {
        if (++checked > 6) break;  // bound LTR work per step

        CheckOutcome ir = engine.CheckImmediate(*qid, a);
        ASSERT_TRUE(ir.ok());
        bool direct_ir = IsImmediatelyRelevant(mirror, s.acs, a, q);
        EXPECT_EQ(ir.relevant, direct_ir)
            << "IR mismatch, seed " << seed << " step " << step << " on "
            << a.ToString(*s.schema, s.acs);

        // Re-check: must be served from cache with the same verdict.
        CheckOutcome again = engine.CheckImmediate(*qid, a);
        EXPECT_TRUE(again.from_cache);
        EXPECT_EQ(again.relevant, ir.relevant);

        CheckOutcome ltr = engine.CheckLongTerm(*qid, a);
        Result<bool> direct_ltr = analyzer.LongTerm(mirror, a, q);
        ASSERT_EQ(ltr.ok(), direct_ltr.ok())
            << "LTR scope mismatch, seed " << seed << ": engine="
            << ltr.status.ToString()
            << " direct=" << direct_ltr.status().ToString();
        if (ltr.ok()) {
          EXPECT_EQ(ltr.relevant, *direct_ltr)
              << "LTR mismatch, seed " << seed << " step " << step << " on "
              << a.ToString(*s.schema, s.acs);
        }
      }

      // Certainty agrees with direct evaluation.
      EXPECT_EQ(engine.IsCertain(*qid), IsCertain(q, mirror));

      // Grow: perform one candidate against the hidden source and apply
      // the response to both the engine and the mirror.
      const Access& apply = candidates[rng.Below(candidates.size())];
      auto response = source.Execute(mirror, apply, ResponsePolicy{});
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      auto added = engine.ApplyResponse(apply, *response);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      for (const Fact& f : *response) mirror.AddFact(f);
      ASSERT_EQ(engine.SnapshotConfig().NumFacts(), mirror.NumFacts());
    }
  }
}

TEST(RelevanceEngineTest, AgreesWithDirectDecidersDependent) {
  RunAgreementStream(/*independent_prob=*/0.0, 1, 8);
}

TEST(RelevanceEngineTest, AgreesWithDirectDecidersIndependent) {
  RunAgreementStream(/*independent_prob=*/1.0, 1, 8);
}

TEST(RelevanceEngineTest, AgreesWithDirectDecidersMixed) {
  RunAgreementStream(/*independent_prob=*/0.5, 9, 14);
}

// Deterministic invalidation scenario: R(D,D) with a free method and a
// Boolean method; growth first changes an IR verdict (epoch entries must
// be revalidated), then makes the query certain (verdicts become sticky
// negatives).
TEST(RelevanceEngineTest, CacheInvalidationAfterGrowth) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", std::vector<DomainId>{d, d});
  AccessMethodSet acs(schema.get());
  AccessMethodId free_m = *acs.Add("r_free", r, {}, /*dependent=*/false);
  AccessMethodId bool_m = *acs.Add("r_bool", r, {0, 1}, /*dependent=*/true);

  Value a = schema->InternConstant("a");
  Value b = schema->InternConstant("b");
  Configuration conf(schema.get());
  conf.AddSeedConstant(a, d);
  conf.AddSeedConstant(b, d);

  // Q: R(a, b)?
  ConjunctiveQuery cq;
  cq.atoms.push_back(Atom{r, {Term::MakeConst(a), Term::MakeConst(b)}});
  ASSERT_TRUE(cq.Validate(*schema).ok());
  UnionQuery q;
  q.disjuncts.push_back(cq);

  RelevanceEngine engine(*schema, acs, conf);
  QueryId qid = *engine.RegisterQuery(q);
  const Access probe{bool_m, {a, b}};

  // Not certain yet: the Boolean probe R(a,b)? is immediately relevant.
  CheckOutcome first = engine.CheckImmediate(qid, probe);
  EXPECT_TRUE(first.relevant);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(engine.CheckImmediate(qid, probe).from_cache);
  const uint64_t epoch_before = engine.epoch();

  // Growth that does NOT settle the query: verdict must be recomputed at
  // the new epoch (a cached "relevant" is not trusted across growth), and
  // recomputation still says relevant.
  ASSERT_TRUE(
      engine.ApplyResponse(Access{free_m, {}}, {Fact(r, {b, a})}).ok());
  EXPECT_GT(engine.epoch(), epoch_before);
  CheckOutcome regrown = engine.CheckImmediate(qid, probe);
  EXPECT_FALSE(regrown.from_cache) << "stale epoch entry must not be served";
  EXPECT_TRUE(regrown.relevant);

  // Growth that makes the query certain: every verdict flips to the
  // stable negative and is served without running a decider again.
  ASSERT_TRUE(
      engine.ApplyResponse(Access{free_m, {}}, {Fact(r, {a, b})}).ok());
  EXPECT_TRUE(engine.IsCertain(qid));
  CheckOutcome settled = engine.CheckImmediate(qid, probe);
  EXPECT_FALSE(settled.relevant);
  EXPECT_TRUE(settled.from_cache);  // certainty short-circuit
  CheckOutcome settled_ltr = engine.CheckLongTerm(qid, probe);
  ASSERT_TRUE(settled_ltr.ok());
  EXPECT_FALSE(settled_ltr.relevant);

  EngineStats stats = engine.stats();
  EXPECT_GT(stats.sticky_hits, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.epoch_advances, 2u);
}

// The tentpole property: verdict validity is keyed on the check's relation
// footprint, so growth of a disjoint relation group leaves cached verdicts
// servable, Adom growth revalidates only the Adom-sensitive (LTR) ones,
// and footprint growth invalidates with per-relation attribution.
TEST(RelevanceEngineTest, FootprintDisjointGrowthPreservesCachedVerdicts) {
  MultiRelationFamily f = MakeMultiRelationFamily(/*groups=*/2,
                                                  /*values_per_group=*/4);
  const Scenario& s = f.scenario;
  RelevanceEngine engine(*s.schema, s.acs, s.conf);
  QueryId q0 = *engine.RegisterQuery(f.queries[0]);

  const AccessMethodId a0 = s.acs.Find("a0");
  const AccessMethodId a1 = s.acs.Find("a1");
  const RelationId rel_a0 = f.group_relations[0][0];
  const RelationId rel_a1 = f.group_relations[1][0];
  const Value c00 = s.schema->InternConstant("c0_0");
  const Value c01 = s.schema->InternConstant("c0_1");
  const Value c10 = s.schema->InternConstant("c1_0");
  const Value c11 = s.schema->InternConstant("c1_1");
  const Access probe{a0, {c00}};

  CheckOutcome ir = engine.CheckImmediate(q0, probe);
  EXPECT_FALSE(ir.from_cache);
  CheckOutcome ltr = engine.CheckLongTerm(q0, probe);
  ASSERT_TRUE(ltr.ok());
  EXPECT_FALSE(ltr.from_cache);

  // Growth of group 1 (disjoint from q0's footprint) using only existing
  // values: the global epoch advances, but neither q0's footprint versions
  // nor the Adom version move — both verdicts are served from cache.
  const uint64_t epoch_before = engine.epoch();
  ASSERT_TRUE(
      engine.ApplyResponse(Access{a1, {c10}}, {Fact(rel_a1, {c10, c11})})
          .ok());
  EXPECT_GT(engine.epoch(), epoch_before);
  CheckOutcome ir2 = engine.CheckImmediate(q0, probe);
  EXPECT_TRUE(ir2.from_cache) << "disjoint growth must not invalidate IR";
  EXPECT_EQ(ir2.relevant, ir.relevant);
  CheckOutcome ltr2 = engine.CheckLongTerm(q0, probe);
  ASSERT_TRUE(ltr2.ok());
  EXPECT_TRUE(ltr2.from_cache) << "disjoint growth must not invalidate LTR";
  EXPECT_EQ(ltr2.relevant, ltr.relevant);
  EXPECT_GE(engine.stats().cross_epoch_hits, 2u);

  // Growth of group 1 with a value new to the active domain: the Adom
  // version moves, so the Adom-sensitive LTR verdict is revalidated while
  // the IR verdict (facts-only footprint) stays cached.
  const Value fresh = s.schema->InternConstant("c1_fresh");
  ASSERT_TRUE(
      engine.ApplyResponse(Access{a1, {c10}}, {Fact(rel_a1, {c10, fresh})})
          .ok());
  CheckOutcome ir3 = engine.CheckImmediate(q0, probe);
  EXPECT_TRUE(ir3.from_cache) << "Adom growth must not invalidate IR";
  CheckOutcome ltr3 = engine.CheckLongTerm(q0, probe);
  ASSERT_TRUE(ltr3.ok());
  EXPECT_FALSE(ltr3.from_cache) << "Adom growth must revalidate LTR";
  EXPECT_EQ(ltr3.relevant, ltr.relevant);

  // Growth inside the footprint invalidates, attributed to the relation
  // that moved.
  ASSERT_TRUE(
      engine.ApplyResponse(Access{a0, {c01}}, {Fact(rel_a0, {c01, c00})})
          .ok());
  CheckOutcome ir4 = engine.CheckImmediate(q0, probe);
  EXPECT_FALSE(ir4.from_cache) << "footprint growth must invalidate IR";
  EngineStats st = engine.stats();
  ASSERT_EQ(st.invalidations_by_relation.size(),
            s.schema->num_relations() + 1);
  EXPECT_GE(st.invalidations_by_relation[rel_a0], 1u);
  EXPECT_GE(st.stale_invalidations, 1u);

  // Baseline contrast: with footprint invalidation off (global-epoch
  // stamping), the same disjoint growth destroys the cached verdict.
  EngineOptions global_opts;
  global_opts.footprint_invalidation = false;
  RelevanceEngine baseline(*s.schema, s.acs, s.conf, global_opts);
  QueryId b0 = *baseline.RegisterQuery(f.queries[0]);
  EXPECT_FALSE(baseline.CheckImmediate(b0, probe).from_cache);
  EXPECT_TRUE(baseline.CheckImmediate(b0, probe).from_cache);
  ASSERT_TRUE(
      baseline.ApplyResponse(Access{a1, {c10}}, {Fact(rel_a1, {c10, c11})})
          .ok());
  EXPECT_FALSE(baseline.CheckImmediate(b0, probe).from_cache)
      << "global-epoch baseline invalidates on any growth";
}

// Per-access checks from several threads, sharing one decision cache,
// agree with an uncached twin that checks the same accesses in order.
TEST(RelevanceEngineTest, ConcurrentChecksAgreeWithSequential) {
  Rng rng(77);
  CliqueFamily family = MakeCliqueFamily(&rng, 3, 8, 0.4);
  const Scenario& s = family.scenario;

  EngineOptions uncached;
  uncached.enable_cache = false;
  RelevanceEngine sequential(*s.schema, s.acs, s.conf, uncached);
  QueryId q_seq = *sequential.RegisterQuery(family.query);

  RelevanceEngine shared(*s.schema, s.acs, s.conf);
  QueryId q_thr = *shared.RegisterQuery(family.query);

  std::vector<Access> pending = sequential.PendingAccesses();
  ASSERT_FALSE(pending.empty());
  std::vector<bool> want;
  for (const Access& a : pending) {
    want.push_back(sequential.CheckImmediate(q_seq, a).relevant);
  }

  // Each thread checks every access twice from its own starting offset,
  // so first checks, inserts and cache hits of one key interleave.
  constexpr size_t kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < 2 * pending.size(); ++k) {
        const size_t i = (k + t * pending.size() / kThreads) % pending.size();
        if (shared.CheckImmediate(q_thr, pending[i]).relevant != want[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Every verdict is cached by now.
  for (size_t i = 0; i < pending.size(); ++i) {
    CheckOutcome again = shared.CheckImmediate(q_thr, pending[i]);
    EXPECT_TRUE(again.from_cache) << "access " << i;
    EXPECT_EQ(again.relevant, want[i]) << "access " << i;
  }
  EngineStats stats = shared.stats();
  EXPECT_EQ(stats.ir_checks, (2 * kThreads + 1) * pending.size());
  EXPECT_GE(stats.cache_hits, pending.size());
}

// ----------------------------------------------------------------- scans

// FirstRelevant against the per-access loop it replaces: on random pending
// lists and filters, two engines fed the same responses — one scanning,
// one looping over CheckImmediate / CheckLongTerm until a relevant access
// — must pick the same index and leave every per-check counter equal. The
// scenario covers ill-formed accesses (a binding outside the active
// domain), a query certain from the start, and out-of-scope LTR verdicts
// (Label's output domain Tag feeds no dependent method, so the truncation
// cannot be cut), under both values of conservative_on_unknown.
TEST(RelevanceEngineTest, FirstRelevantEqualsPerAccessLoop) {
  auto schema = std::make_shared<Schema>();
  const DomainId item = schema->AddDomain("Item");
  const DomainId seller = schema->AddDomain("Seller");
  const DomainId tag = schema->AddDomain("Tag");
  const RelationId listing =
      *schema->AddRelation("Listing", {{"item", item}, {"seller", seller}});
  const RelationId vetted = *schema->AddRelation("Vetted", {{"s", seller}});
  const RelationId supplies =
      *schema->AddRelation("Supplies", {{"seller", seller}, {"item", item}});
  const RelationId label =
      *schema->AddRelation("Label", {{"item", item}, {"tag", tag}});
  AccessMethodSet acs(schema.get());
  const AccessMethodId m_listing = *acs.Add("listing", listing, {0}, true);
  (void)*acs.Add("vetted", vetted, {0}, true);
  (void)*acs.Add("supplies", supplies, {0}, true);
  (void)*acs.Add("label", label, {0}, true);

  std::vector<Value> items, sellers, tags;
  for (int i = 0; i < 12; ++i) {
    items.push_back(schema->InternConstant("i" + std::to_string(i)));
    sellers.push_back(schema->InternConstant("s" + std::to_string(i)));
    tags.push_back(schema->InternConstant("t" + std::to_string(i % 3)));
  }
  Configuration hidden(schema.get());
  for (int i = 0; i < 12; ++i) {
    hidden.AddFact(Fact(listing, {items[i], sellers[(i * 5) % 12]}));
    hidden.AddFact(Fact(label, {items[i], tags[i]}));
    if (i % 2 == 0) hidden.AddFact(Fact(vetted, {sellers[i]}));
    if (i >= 2) hidden.AddFact(Fact(supplies, {sellers[i - 2], items[i]}));
  }
  Configuration conf(schema.get());
  conf.AddFact(Fact(listing, {items[0], sellers[0]}));
  conf.AddFact(Fact(listing, {items[1], sellers[3]}));

  auto var = [](VarId v) { return Term::MakeVar(v); };
  auto constant = [](Value c) { return Term::MakeConst(c); };
  std::vector<UnionQuery> queries;
  auto add_query = [&](std::vector<Atom> atoms, int num_vars,
                       std::vector<DomainId> domains) {
    ConjunctiveQuery cq;
    for (int v = 0; v < num_vars; ++v) {
      cq.AddVar("V" + std::to_string(v), domains[v]);
    }
    cq.atoms = std::move(atoms);
    ASSERT_TRUE(cq.Validate(*schema).ok());
    UnionQuery uq;
    uq.disjuncts.push_back(std::move(cq));
    queries.push_back(std::move(uq));
  };
  // Binding-query shapes: a bound item, a bound seller, a Label chain
  // (out-of-scope LTR), and a query certain at the start.
  add_query({Atom{listing, {constant(items[4]), var(0)}},
             Atom{vetted, {var(0)}}},
            1, {seller});
  add_query({Atom{supplies, {constant(sellers[2]), var(0)}},
             Atom{listing, {var(0), var(1)}}},
            2, {item, seller});
  add_query({Atom{supplies, {var(0), var(1)}},
             Atom{label, {var(1), var(2)}}},
            3, {seller, item, tag});
  add_query({Atom{listing, {constant(items[0]), var(0)}}}, 1, {seller});

  RelevanceEngine looping(*schema, acs, conf);
  RelevanceEngine scanning(*schema, acs, conf);
  std::vector<QueryId> qids;
  for (const UnionQuery& q : queries) {
    qids.push_back(*looping.RegisterQuery(q));
    ASSERT_EQ(*scanning.RegisterQuery(q), qids.back());
  }
  ASSERT_TRUE(looping.IsCertain(qids[3]));
  // Interned but never in the active domain: accesses bound to it are
  // ill-formed.
  const Value unknown = schema->InternConstant("nowhere");

  Rng rng(77);
  int relevant_found = 0;
  int out_of_scope_seen = 0;
  for (int round = 0; round < 60; ++round) {
    std::vector<Access> pending = looping.PendingAccesses();
    ASSERT_EQ(pending.size(), scanning.PendingAccesses().size());
    if (pending.empty()) break;
    for (int probe = 0; probe < 4; ++probe) {
      std::vector<Access> list;
      for (const Access& a : pending) {
        if (rng.Chance(0.7)) list.push_back(a);
      }
      list.insert(list.begin() + rng.Below(list.size() + 1),
                  Access{m_listing, {unknown}});
      for (size_t i = list.size(); i > 1; --i) {
        std::swap(list[i - 1], list[rng.Below(i)]);
      }
      const size_t q = rng.Below(qids.size());
      const CheckKind kind =
          rng.Chance(0.5) ? CheckKind::kImmediate : CheckKind::kLongTerm;
      const bool conservative = rng.Chance(0.5);
      const uint32_t mask = static_cast<uint32_t>(rng.Range(1, 15));
      auto applicable = [&](AccessMethodId m) {
        return ((mask >> acs.method(m).relation) & 1u) != 0;
      };

      int loop_index = -1;
      for (size_t i = 0; i < list.size() && loop_index < 0; ++i) {
        if (!applicable(list[i].method)) continue;
        CheckOutcome out = kind == CheckKind::kImmediate
                               ? looping.CheckImmediate(qids[q], list[i])
                               : looping.CheckLongTerm(qids[q], list[i]);
        if (!out.ok()) ++out_of_scope_seen;
        const bool relevant = out.ok() ? out.relevant
                                       : kind == CheckKind::kLongTerm &&
                                             conservative;
        if (relevant) loop_index = static_cast<int>(i);
      }
      RelevanceEngine::ScanOutcome scan = scanning.FirstRelevant(
          qids[q], kind, list.data(), list.size(), applicable, conservative);
      ASSERT_EQ(scan.index, loop_index) << "round " << round;
      if (scan.certain.has_value()) {
        EXPECT_EQ(*scan.certain, looping.IsCertain(qids[q]));
        EXPECT_EQ(*scan.certain, scanning.IsCertain(qids[q]));
      }
      if (loop_index >= 0) ++relevant_found;

      const EngineStats a = looping.stats();
      const EngineStats b = scanning.stats();
      EXPECT_EQ(a.ir_checks, b.ir_checks) << "round " << round;
      EXPECT_EQ(a.ltr_checks, b.ltr_checks) << "round " << round;
      EXPECT_EQ(a.cache_hits, b.cache_hits) << "round " << round;
      EXPECT_EQ(a.cache_misses, b.cache_misses) << "round " << round;
      EXPECT_EQ(a.sticky_hits, b.sticky_hits) << "round " << round;
      EXPECT_EQ(a.uncached_ir_checks, b.uncached_ir_checks);
      EXPECT_EQ(a.uncached_ltr_checks, b.uncached_ltr_checks);
      EXPECT_EQ(a.wf_rejections, b.wf_rejections) << "round " << round;
    }

    // Grow both engines alike: answer a random pending access from the
    // hidden instance.
    const Access& step = rng.Pick(pending);
    std::vector<Fact> response;
    const AccessMethod& m = acs.method(step.method);
    for (const Fact& f : hidden.FactsOf(m.relation)) {
      if (f.values[m.input_positions[0]] == step.binding[0]) {
        response.push_back(f);
      }
    }
    ASSERT_TRUE(looping.ApplyResponse(step, response).ok());
    ASSERT_TRUE(scanning.ApplyResponse(step, response).ok());
  }
  EXPECT_GT(relevant_found, 0);
  EXPECT_GT(out_of_scope_seen, 0);
  EXPECT_GT(scanning.stats().wf_rejections, 0u);
  EXPECT_GT(scanning.stats().sticky_hits, 0u);
}

// ------------------------------------------------- achievability memo

// A random schema over two domains under dependent methods: three
// relations of arity 1 or 2, one dependent method each with a random
// input set, so some methods are Boolean, some have outputs, and some
// output domains feed no method input (the truncation cannot be cut).
struct TwoDomainWorld {
  Scenario scenario;
  Configuration hidden;
  std::vector<std::vector<Value>> constants;  ///< by domain
};

TwoDomainWorld RandomTwoDomainWorld(Rng* rng) {
  TwoDomainWorld w;
  Scenario& s = w.scenario;
  s.schema = std::make_shared<Schema>();
  const DomainId domains[] = {s.schema->AddDomain("D"),
                              s.schema->AddDomain("E")};
  s.acs = AccessMethodSet(s.schema.get());
  for (int r = 0; r < 3; ++r) {
    std::vector<DomainId> attrs(1 + rng->Below(2));
    for (DomainId& d : attrs) d = domains[rng->Below(2)];
    const RelationId rel =
        *s.schema->AddRelation("R" + std::to_string(r), attrs);
    std::vector<int> inputs;
    for (int pos = 0; pos < static_cast<int>(attrs.size()); ++pos) {
      if (rng->Chance(0.5)) inputs.push_back(pos);
    }
    (void)*s.acs.Add("m" + std::to_string(r), rel, inputs,
                     /*dependent=*/true);
  }
  w.constants.resize(2);
  for (int d = 0; d < 2; ++d) {
    for (int i = 0; i < 3; ++i) {
      w.constants[d].push_back(s.schema->InternConstant(
          std::string(1, "de"[d]) + std::to_string(i)));
    }
  }
  w.hidden = Configuration(s.schema.get());
  for (RelationId rel = 0; rel < s.schema->num_relations(); ++rel) {
    const Relation& r = s.schema->relation(rel);
    for (int i = 0; i < 4; ++i) {
      Fact f;
      f.relation = rel;
      for (const Attribute& a : r.attributes) {
        f.values.push_back(rng->Pick(w.constants[a.domain]));
      }
      w.hidden.AddFact(f);
    }
  }
  // One known value of D, and of E only sometimes: a query that needs a
  // value of an empty domain must produce one first.
  s.conf = Configuration(s.schema.get());
  s.conf.AddSeedConstant(w.constants[0][0], 0);
  if (rng->Chance(0.5)) s.conf.AddSeedConstant(w.constants[1][0], 1);
  return w;
}

// A random CQ with one head variable: `num_atoms` atoms over random
// relations, each position a variable of its domain (two per domain) or,
// with probability 0.2, one of the world's constants of that domain.
ConjunctiveQuery RandomUnaryQuery(Rng* rng, const TwoDomainWorld& w,
                                  int num_atoms) {
  const Schema& schema = *w.scenario.schema;
  ConjunctiveQuery cq;
  std::vector<std::vector<VarId>> vars(2);
  for (DomainId d = 0; d < 2; ++d) {
    for (int i = 0; i < 2; ++i) {
      vars[d].push_back(
          cq.AddVar(std::string(1, "XY"[d]) + std::to_string(i), d));
    }
  }
  for (int i = 0; i < num_atoms; ++i) {
    Atom atom;
    atom.relation =
        static_cast<RelationId>(rng->Below(schema.num_relations()));
    for (const Attribute& a : schema.relation(atom.relation).attributes) {
      atom.terms.push_back(
          rng->Chance(0.2) ? Term::MakeConst(rng->Pick(w.constants[a.domain]))
                           : Term::MakeVar(rng->Pick(vars[a.domain])));
    }
    cq.atoms.push_back(std::move(atom));
  }
  std::vector<VarId> occurring;
  for (VarId v = 0; v < static_cast<VarId>(cq.num_vars()); ++v) {
    if (cq.VarOccurs(v)) occurring.push_back(v);
  }
  if (!occurring.empty()) cq.head = {rng->Pick(occurring)};
  return cq;
}

// A fixed two-domain world where only the generic response makes a query
// achievable within a horizon of no auxiliary facts: Q(X) :- R2(X), R1(Y)
// needs a value of E, which the configuration lacks and only R0's output
// produces. From the view, R1(Y) waits for an auxiliary R0 fact; from the
// view plus the generic response of R0's access, Y maps to the response's
// output. R3's access also has outputs, but in D: its generic response
// does not help, so a memo set from R0's search would misjudge it.
TwoDomainWorld GenericOnlyWorld() {
  TwoDomainWorld w;
  Scenario& s = w.scenario;
  s.schema = std::make_shared<Schema>();
  const DomainId d = s.schema->AddDomain("D");
  const DomainId e = s.schema->AddDomain("E");
  using Domains = std::vector<DomainId>;
  const RelationId r0 = *s.schema->AddRelation("R0", Domains{d, e});
  const RelationId r1 = *s.schema->AddRelation("R1", Domains{e});
  const RelationId r2 = *s.schema->AddRelation("R2", Domains{d});
  const RelationId r3 = *s.schema->AddRelation("R3", Domains{d, d});
  s.acs = AccessMethodSet(s.schema.get());
  (void)*s.acs.Add("m0", r0, {0}, /*dependent=*/true);
  (void)*s.acs.Add("m1", r1, {0}, /*dependent=*/true);
  (void)*s.acs.Add("m2", r2, {0}, /*dependent=*/true);
  (void)*s.acs.Add("m3", r3, {0}, /*dependent=*/true);
  w.constants.resize(2);
  for (const char* name : {"d0", "d1"}) {
    w.constants[d].push_back(s.schema->InternConstant(name));
  }
  w.constants[e].push_back(s.schema->InternConstant("e0"));
  const Value d0 = w.constants[d][0], d1 = w.constants[d][1];
  const Value e0 = w.constants[e][0];
  w.hidden = Configuration(s.schema.get());
  w.hidden.AddFact(Fact(r0, {d1, e0}));
  w.hidden.AddFact(Fact(r1, {e0}));
  w.hidden.AddFact(Fact(r2, {d0}));
  w.hidden.AddFact(Fact(r3, {d0, d1}));
  s.conf = Configuration(s.schema.get());
  s.conf.AddSeedConstant(d0, d);
  return w;
}

// The per-query achievability memo against the one-shot decider. In
// two-domain worlds grown through ApplyResponse, after every apply each
// (binding query, well-formed pending access with outputs) LTR outcome of
// the engine — relevant, not relevant, or FailedPrecondition — equals
// IsLongTermRelevantDependentGeneral over a snapshot seeded with the
// query's constants (the engine's check-time view), under the engine's
// containment options; with a horizon of 4 auxiliary facts and at most
// two atoms it also equals BruteForceLTR. The binding queries are a
// unary query's Prop 2.2 instantiations: every active-domain value of the
// head's domain at registration, plus the instantiator's fresh constant
// (a seeded view). Horizons vary (0, 1 or 4 auxiliary facts): the memo and
// the search part ways exactly there, since the search from the view plus
// the generic response can need one auxiliary fact fewer than the search
// from the view alone. The run must meet a query achievable only thanks
// to the generic response (the memo stays unset, the search runs), an
// achievable access nothing can cut, a fresh head constant, and checks
// the memo answered.
TEST(RelevanceEngineTest, AchievabilityMemoMatchesOneShotDecider) {
  int generic_only = 0;
  int uncuttable = 0;
  int fresh_compared = 0;
  int brute_compared = 0;
  uint64_t memo_answers = 0;
  auto run = [&](const TwoDomainWorld& w,
                 std::vector<ConjunctiveQuery> queries, int horizon,
                 Rng* rng, const std::string& label) {
    const Scenario& s = w.scenario;
    const Schema& schema = *s.schema;
    EngineOptions opts;
    opts.relevance.containment.max_aux_facts = horizon;
    ContainmentOptions copts = opts.relevance.containment;
    copts.build_witness = false;
    RelevanceEngine engine(schema, s.acs, s.conf, opts);

    struct Bound {
      UnionQuery query;
      QueryId id;
      bool fresh;
    };
    std::vector<Bound> bound;
    for (ConjunctiveQuery& cq : queries) {
      if (cq.head.empty() || !cq.Validate(schema).ok()) continue;
      UnionQuery kary;
      kary.disjuncts.push_back(cq);
      HeadInstantiator inst(schema, kary);
      ASSERT_TRUE(inst.status().ok());
      std::vector<Value> heads =
          s.conf.AdomOfDomain(inst.slot_domain(0)).ToVector();
      heads.push_back(inst.fresh_constants()[0].value);
      for (const Value& v : heads) {
        UnionQuery bq = inst.Instantiate({v});
        if (bq.disjuncts.empty()) continue;
        Result<QueryId> id = engine.RegisterQuery(bq);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        bound.push_back({bq, *id, v == heads.back()});
      }
    }

    for (int step = 0; step < 6; ++step) {
      const std::vector<Access> pending = engine.PendingAccesses();
      if (pending.empty()) break;
      for (const Bound& b : bound) {
        Configuration seeded = engine.SnapshotConfig();
        SeedQueryConstants(&seeded, b.query, schema);
        for (const Access& a : pending) {
          if (s.acs.IsBoolean(a.method)) continue;
          ASSERT_TRUE(engine.ValidateAccess(a).ok());
          const CheckOutcome got = engine.CheckLongTerm(b.id, a);
          const Result<bool> want = IsLongTermRelevantDependentGeneral(
              seeded, s.acs, a, b.query, copts);
          const std::string where =
              label + " step " + std::to_string(step) + " query " +
              b.query.disjuncts[0].ToString(schema) + " access " +
              a.ToString(schema, s.acs);
          ASSERT_EQ(got.ok(), want.ok())
              << where << ": engine " << got.status.ToString()
              << ", one-shot " << want.status().ToString();
          if (!want.ok()) {
            EXPECT_EQ(got.status.code(), want.status().code()) << where;
            ++uncuttable;
            continue;
          }
          ASSERT_EQ(got.relevant, *want) << where;
          if (b.fresh) ++fresh_compared;
          if (*want && !EvalBool(b.query, seeded) &&
              !*IsAchievable(seeded, s.acs, b.query, copts)) {
            ++generic_only;
          }
          // Brute force explores three accesses after the first: enough
          // for a witness of two facts plus the access that cuts the
          // truncation.
          if (horizon == 4 && b.query.disjuncts[0].num_atoms() <= 2) {
            BruteForceOptions brute;
            brute.max_steps = 3;
            brute.max_first_response = 2;
            EXPECT_EQ(BruteForceLTR(seeded, s.acs, a, b.query, brute), *want)
                << "brute force, " << where;
            ++brute_compared;
          }
        }
      }
      // Grow: answer a random pending access from the hidden instance.
      const Access& apply = rng->Pick(pending);
      const AccessMethod& m = s.acs.method(apply.method);
      std::vector<Fact> response;
      for (const Fact& f : w.hidden.FactsOf(m.relation)) {
        bool matches = true;
        for (int i = 0; i < m.num_inputs(); ++i) {
          matches &= f.values[m.input_positions[i]] == apply.binding[i];
        }
        if (matches) response.push_back(f);
      }
      ASSERT_TRUE(engine.ApplyResponse(apply, response).ok());
    }
    memo_answers += engine.stats().achievable_reuse;
  };

  {
    const TwoDomainWorld w = GenericOnlyWorld();
    ConjunctiveQuery cq;
    const VarId x = cq.AddVar("X", 0);
    const VarId y = cq.AddVar("Y", 1);
    cq.atoms.push_back(Atom{2, {Term::MakeVar(x)}});
    cq.atoms.push_back(Atom{1, {Term::MakeVar(y)}});
    cq.head = {x};
    for (int horizon : {0, 4}) {
      Rng rng(horizon + 1);
      run(w, {cq}, horizon, &rng,
          "generic-only world, horizon " + std::to_string(horizon));
      if (HasFatalFailure()) return;
    }
  }
  for (uint64_t seed = 1; seed <= 18; ++seed) {
    Rng rng(seed * 2654435761u + 7);
    const TwoDomainWorld w = RandomTwoDomainWorld(&rng);
    std::vector<ConjunctiveQuery> queries;
    for (int q = 0; q < 2; ++q) {
      queries.push_back(
          RandomUnaryQuery(&rng, w, static_cast<int>(rng.Range(1, 3))));
    }
    const int horizons[] = {0, 1, 4};
    run(w, queries, horizons[seed % 3], &rng,
        "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(generic_only, 0) << "no query achievable only with the response";
  EXPECT_GT(uncuttable, 0) << "no achievable access that nothing can cut";
  EXPECT_GT(fresh_compared, 0) << "no binding over a fresh head constant";
  EXPECT_GT(brute_compared, 0);
  EXPECT_GT(memo_answers, 0u) << "the memo never answered";
}

TEST(RelevanceEngineTest, ProducibleDomainsFixpointIsReusedWithinEpoch) {
  ChainFamily f = MakeChainFamily(3);
  RelevanceEngine engine(*f.scenario.schema, f.scenario.acs, f.scenario.conf);
  auto first = engine.producible_domains();
  auto second = engine.producible_domains();
  EXPECT_EQ(first, second);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.producible_recomputes, 1u);
  EXPECT_EQ(stats.producible_reuse, 1u);
}

TEST(RelevanceEngineTest, RejectsMalformedResponses) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", std::vector<DomainId>{d, d});
  RelationId s = *schema->AddRelation("S", std::vector<DomainId>{d});
  AccessMethodSet acs(schema.get());
  AccessMethodId free_m = *acs.Add("r_free", r, {}, /*dependent=*/false);
  Value a = schema->InternConstant("a");
  Configuration conf(schema.get());
  conf.AddSeedConstant(a, d);
  RelevanceEngine engine(*schema, acs, conf);

  // Wrong arity for R (would index out of bounds downstream if absorbed).
  EXPECT_FALSE(engine.ApplyResponse(Access{free_m, {}}, {Fact(r, {a})}).ok());
  // Wrong relation entirely.
  EXPECT_FALSE(engine.ApplyResponse(Access{free_m, {}}, {Fact(s, {a})}).ok());
  // The configuration stayed clean and a valid response still applies.
  EXPECT_EQ(engine.SnapshotConfig().NumFacts(), 0u);
  auto ok = engine.ApplyResponse(Access{free_m, {}}, {Fact(r, {a, a})});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, 1);
}

TEST(RelevanceEngineTest, RejectsNonBooleanQueries) {
  ChainFamily f = MakeChainFamily(2);
  RelevanceEngine engine(*f.scenario.schema, f.scenario.acs, f.scenario.conf);
  UnionQuery kary = f.contained;
  kary.disjuncts[0].head.push_back(0);
  EXPECT_FALSE(engine.RegisterQuery(kary).ok());
}

}  // namespace
}  // namespace rar
