// Tests for the RelevanceEngine runtime: decision-cache semantics, the
// incremental access frontier, the worker pool, and — the load-bearing
// property — agreement between the engine's cached/incremental/batched
// verdicts and the direct one-shot deciders in relevance/ on randomized
// scenario streams, including cache invalidation after configuration
// growth.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "engine/decision_cache.h"
#include "engine/engine.h"
#include "engine/frontier.h"
#include "engine/worker_pool.h"
#include "query/eval.h"
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
  DecisionKey key{0, CheckKind::kImmediate, 0, {Value::Constant(1)}};
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
  DecisionKey key{1, CheckKind::kLongTerm, 2, {}};
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

TEST(DecisionCacheTest, EvictStaleKeepsCurrentAndSticky) {
  DecisionCache cache;
  cache.Insert(DecisionKey{0, CheckKind::kImmediate, 0, {}}, true, false,
               VersionStamp{1}, 1);
  cache.Insert(DecisionKey{0, CheckKind::kImmediate, 1, {}}, true, false,
               VersionStamp{2}, 2);
  cache.Insert(DecisionKey{0, CheckKind::kLongTerm, 0, {}}, false, true,
               VersionStamp{0}, 0);
  EXPECT_EQ(cache.size(), 3u);
  // Current stamp is {2} for every key: only the {1}-stamped entry goes.
  EXPECT_EQ(cache.EvictStale([](const DecisionKey&) {
    return VersionStamp{2};
  }),
            1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DecisionCacheTest, LruCapEvictsColdestEntries) {
  DecisionCache cache(/*capacity=*/2);
  DecisionKey k0{0, CheckKind::kImmediate, 0, {}};
  DecisionKey k1{0, CheckKind::kImmediate, 1, {}};
  DecisionKey k2{0, CheckKind::kImmediate, 2, {}};
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

// ------------------------------------------------------------ worker pool

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> sum{0};
  pool.ParallelFor(1000, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000 * 1001 / 2);
}

TEST(WorkerPoolTest, WaitIsABarrier) {
  WorkerPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 64);
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

TEST(RelevanceEngineTest, BatchAgreesWithSequentialAcrossThreads) {
  Rng rng(77);
  CliqueFamily family = MakeCliqueFamily(&rng, 3, 8, 0.4);
  const Scenario& s = family.scenario;

  EngineOptions single;
  single.num_threads = 1;
  single.enable_cache = false;
  RelevanceEngine sequential(*s.schema, s.acs, s.conf, single);
  QueryId q_seq = *sequential.RegisterQuery(family.query);

  EngineOptions multi;
  multi.num_threads = 4;
  RelevanceEngine threaded(*s.schema, s.acs, s.conf, multi);
  QueryId q_thr = *threaded.RegisterQuery(family.query);

  std::vector<Access> batch = sequential.PendingAccesses();
  ASSERT_FALSE(batch.empty());

  std::vector<CheckOutcome> fanned =
      threaded.CheckBatch(q_thr, CheckKind::kImmediate, batch);
  ASSERT_EQ(fanned.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    CheckOutcome direct = sequential.CheckImmediate(q_seq, batch[i]);
    EXPECT_EQ(fanned[i].relevant, direct.relevant) << "access " << i;
  }

  // A second fan-out over the same batch is answered from the cache.
  std::vector<CheckOutcome> again =
      threaded.CheckBatch(q_thr, CheckKind::kImmediate, batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(again[i].from_cache);
    EXPECT_EQ(again[i].relevant, fanned[i].relevant);
  }
  EngineStats stats = threaded.stats();
  EXPECT_EQ(stats.batch_calls, 2u);
  EXPECT_EQ(stats.batch_items, 2 * batch.size());
  EXPECT_GE(stats.cache_hits, batch.size());
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
