// Concurrency stress tests for the sharded RelevanceEngine: ApplyResponse
// interleaved with checks from several threads across disjoint and
// overlapping relation footprints. The load-bearing assertions: (1) under
// arbitrary interleavings every verdict the engine ever returns is one
// the direct deciders produce at *some* configuration between the check's
// start and end (for quiesced states: exact agreement), (2) footprint-
// disjoint cached verdicts survive concurrent growth of other groups, and
// (3) the run is data-race-free — the ThreadSanitizer CI job builds
// exactly this test to certify the lock discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "query/eval.h"
#include "relational/overlay.h"
#include "relevance/immediate.h"
#include "relevance/relevance.h"
#include "sim/deep_web.h"
#include "stream/registry.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace rar {
namespace {

// Pre-computes, per group, the script of (access, response) pairs a crawl
// of the group's hidden facts would produce.
struct GroupScript {
  std::vector<std::pair<Access, std::vector<Fact>>> steps;
};

std::vector<GroupScript> BuildScripts(const MultiRelationFamily& f) {
  std::vector<GroupScript> scripts(f.group_relations.size());
  for (size_t g = 0; g < f.group_relations.size(); ++g) {
    const std::string tag = std::to_string(g);
    AccessMethodId am = f.scenario.acs.Find("a" + tag);
    AccessMethodId bm = f.scenario.acs.Find("b" + tag);
    for (const Fact& fact : f.hidden.FactsOf(f.group_relations[g][0])) {
      scripts[g].steps.push_back(
          {Access{am, {fact.values[0]}}, {fact}});
    }
    for (const Fact& fact : f.hidden.FactsOf(f.group_relations[g][1])) {
      scripts[g].steps.push_back(
          {Access{bm, {fact.values[0]}}, {fact}});
    }
  }
  return scripts;
}

// One per-access check of either kind.
CheckOutcome Check(RelevanceEngine& engine, QueryId q, CheckKind kind,
                   const Access& access) {
  return kind == CheckKind::kImmediate ? engine.CheckImmediate(q, access)
                                       : engine.CheckLongTerm(q, access);
}

// Appliers replay group scripts while checkers probe every group's
// candidate accesses one by one; verdicts must match the direct deciders
// once the engine quiesces, and no interleaving may trip TSan or the
// engine's internal invariants.
TEST(EngineConcurrencyTest, AppliesOverlapChecksAcrossFootprints) {
  constexpr int kGroups = 3;
  MultiRelationFamily f = MakeMultiRelationFamily(kGroups, 4);
  const Scenario& s = f.scenario;

  RelevanceEngine engine(*s.schema, s.acs, s.conf);
  std::vector<QueryId> qids;
  for (const UnionQuery& q : f.queries) {
    auto qid = engine.RegisterQuery(q);
    ASSERT_TRUE(qid.ok());
    qids.push_back(*qid);
  }
  std::vector<GroupScript> scripts = BuildScripts(f);
  std::vector<Access> pending = engine.PendingAccesses();
  ASSERT_FALSE(pending.empty());

  // One applier per group (disjoint footprints: applies overlap with each
  // other), plus checkers hammering both kinds for every query — their
  // footprints overlap the appliers' relations, exercising the stripe
  // exclusion path too.
  std::atomic<bool> stop{false};
  std::atomic<int> check_errors{0};
  std::vector<std::thread> threads;
  // Replaying the (idempotent) scripts keeps appliers live long enough for
  // the checkers to interleave with every lock path, not just the first
  // few microseconds.
  constexpr int kApplierRounds = 25;
  for (int g = 0; g < kGroups; ++g) {
    threads.emplace_back([&, g]() {
      for (int round = 0; round < kApplierRounds; ++round) {
        for (const auto& [access, response] : scripts[g].steps) {
          auto added = engine.ApplyResponse(access, response);
          if (!added.ok()) check_errors.fetch_add(1);
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c]() {
      Rng rng(1000 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        QueryId qid = qids[rng.Below(qids.size())];
        CheckKind kind = rng.Chance(0.5) ? CheckKind::kImmediate
                                         : CheckKind::kLongTerm;
        for (const Access& a : pending) (void)Check(engine, qid, kind, a);
        (void)engine.IsCertain(qid);
        (void)engine.CandidateAccesses(qid);
        (void)engine.producible_domains();
      }
    });
  }
  for (int g = 0; g < kGroups; ++g) threads[g].join();  // appliers done
  stop.store(true);
  for (size_t t = kGroups; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(check_errors.load(), 0);

  // Quiesced: every engine verdict must agree with the direct deciders on
  // a snapshot of the final configuration — cached or not.
  Configuration final_conf = engine.SnapshotConfig();
  RelevanceAnalyzer analyzer(*s.schema, s.acs);
  for (size_t g = 0; g < qids.size(); ++g) {
    for (const Access& a : pending) {
      CheckOutcome ir = engine.CheckImmediate(qids[g], a);
      ASSERT_TRUE(ir.ok());
      EXPECT_EQ(ir.relevant,
                IsImmediatelyRelevant(final_conf, s.acs, a, f.queries[g]))
          << "IR mismatch, group " << g;
      CheckOutcome ltr = engine.CheckLongTerm(qids[g], a);
      Result<bool> direct = analyzer.LongTerm(final_conf, a, f.queries[g]);
      ASSERT_EQ(ltr.ok(), direct.ok());
      if (ltr.ok()) {
        EXPECT_EQ(ltr.relevant, *direct) << "LTR mismatch, group " << g;
      }
    }
  }

  EngineStats st = engine.stats();
  EXPECT_EQ(st.responses_applied,
            kApplierRounds * (scripts[0].steps.size() +
                              scripts[1].steps.size() +
                              scripts[2].steps.size()));
  // Only the first replay of each fact grows anything; later replays are
  // pure reads under the shared Adom lock.
  EXPECT_EQ(st.facts_applied,
            f.hidden.NumFacts());
}

// The decision cache under eviction pressure: a 16-entry cache serves
// three threads of per-access checks and FirstRelevant scans over every
// pending access of several queries, so nearly every insert evicts and
// released records are recycled while other threads probe. Between the
// concurrent phases one thread grows the configuration, making cached
// entries stale.
// Load-bearing assertions: every verdict equals the one an uncached twin
// engine returns at the same configuration, evictions happen, and the run
// is race-free (the TSan CI job builds this test).
TEST(EngineConcurrencyTest, SmallCacheEvictsUnderConcurrentChecks) {
  MultiRelationFamily f = MakeMultiRelationFamily(3, 12);
  const Scenario& s = f.scenario;
  EngineOptions opts;
  opts.cache_capacity = 16;
  RelevanceEngine engine(*s.schema, s.acs, s.conf, opts);
  EngineOptions twin_opts = opts;
  twin_opts.enable_cache = false;
  RelevanceEngine twin(*s.schema, s.acs, s.conf, twin_opts);
  std::vector<QueryId> qids;
  for (const UnionQuery& q : f.queries) {
    qids.push_back(*engine.RegisterQuery(q));
    ASSERT_EQ(*twin.RegisterQuery(q), qids.back());
  }
  const std::vector<Access> pending = engine.PendingAccesses();
  ASSERT_GE(pending.size(), 64u);
  std::vector<GroupScript> scripts = BuildScripts(f);
  const CheckKind kinds[2] = {CheckKind::kImmediate, CheckKind::kLongTerm};
  auto admit_all = [](AccessMethodId) { return true; };

  std::atomic<int> mismatches{0};
  for (int round = 0; round < 4; ++round) {
    // The twin's verdicts at this configuration, per (query, kind).
    std::vector<std::vector<CheckOutcome>> want;
    std::vector<int> want_first;
    for (QueryId q : qids) {
      for (CheckKind kind : kinds) {
        want.emplace_back();
        for (const Access& a : pending) {
          want.back().push_back(Check(twin, q, kind, a));
        }
        int first = -1;
        for (size_t i = 0; i < pending.size() && first < 0; ++i) {
          const CheckOutcome& o = want.back()[i];
          if (o.ok() ? o.relevant : kind == CheckKind::kLongTerm) {
            first = static_cast<int>(i);
          }
        }
        want_first.push_back(first);
      }
    }
    std::vector<std::thread> checkers;
    for (int t = 0; t < 3; ++t) {
      checkers.emplace_back([&, t]() {
        Rng rng(100 * round + t);
        for (int iter = 0; iter < 12; ++iter) {
          const size_t q = rng.Below(qids.size());
          const size_t k = rng.Below(2);
          const size_t slot = 2 * q + k;
          if (rng.Chance(0.5)) {
            for (size_t i = 0; i < pending.size(); ++i) {
              const CheckOutcome got =
                  Check(engine, qids[q], kinds[k], pending[i]);
              if (got.ok() != want[slot][i].ok() ||
                  got.relevant != want[slot][i].relevant) {
                mismatches.fetch_add(1);
              }
            }
          } else if (engine
                         .FirstRelevant(qids[q], kinds[k], pending.data(),
                                        pending.size(), admit_all, true)
                         .index != want_first[slot]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : checkers) t.join();
    // Grow both engines alike (one hidden fact of each group).
    for (const GroupScript& script : scripts) {
      const auto& [access, response] =
          script.steps[static_cast<size_t>(round) % script.steps.size()];
      ASSERT_TRUE(engine.ApplyResponse(access, response).ok());
      ASSERT_TRUE(twin.ApplyResponse(access, response).ok());
    }
  }
  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats st = engine.stats();
  EXPECT_GT(st.cache_evictions, 0u);
  EXPECT_LE(st.cache_entries, 16u);
  EXPECT_GT(st.cache_hits, 0u);
}

// Deterministic overlap: cached verdicts for group 0 survive a concurrent
// burst of group-1 growth (disjoint footprint, existing values only),
// while group-0 growth invalidates them.
TEST(EngineConcurrencyTest, FootprintDisjointVerdictsSurviveConcurrentGrowth) {
  MultiRelationFamily f = MakeMultiRelationFamily(2, 4);
  const Scenario& s = f.scenario;
  RelevanceEngine engine(*s.schema, s.acs, s.conf);
  QueryId q0 = *engine.RegisterQuery(f.queries[0]);

  const Access probe{s.acs.Find("a0"), {s.schema->InternConstant("c0_0")}};
  CheckOutcome first = engine.CheckImmediate(q0, probe);
  EXPECT_FALSE(first.from_cache);
  CheckOutcome ltr_first = engine.CheckLongTerm(q0, probe);
  ASSERT_TRUE(ltr_first.ok());

  // Concurrent growth of group 1 (existing values: Adom fixed) while a
  // checker re-probes group 0; every re-probe must be a cache hit with an
  // unchanged verdict.
  std::vector<GroupScript> scripts = BuildScripts(f);
  std::atomic<int> misses{0};
  std::thread applier([&]() {
    for (const auto& [access, response] : scripts[1].steps) {
      ASSERT_TRUE(engine.ApplyResponse(access, response).ok());
    }
  });
  for (int i = 0; i < 64; ++i) {
    CheckOutcome again = engine.CheckImmediate(q0, probe);
    EXPECT_EQ(again.relevant, first.relevant);
    if (!again.from_cache) misses.fetch_add(1);
    CheckOutcome ltr_again = engine.CheckLongTerm(q0, probe);
    ASSERT_TRUE(ltr_again.ok());
    EXPECT_EQ(ltr_again.relevant, ltr_first.relevant);
  }
  applier.join();
  EXPECT_EQ(misses.load(), 0)
      << "group-1 growth must never invalidate group-0 IR verdicts";

  // Group-0 growth does invalidate.
  ASSERT_TRUE(
      engine.ApplyResponse(scripts[0].steps[0].first,
                           scripts[0].steps[0].second)
          .ok());
  EXPECT_FALSE(engine.CheckImmediate(q0, probe).from_cache);
}

// LTR-only workload under the footprint-narrow lock path: with an all-
// independent ACS, CheckLongTerm pins only the query's relations plus the
// accessed relation (no AllStripes fallback — the deciders read overlay
// views), so applies to the *other* group's relations overlap LTR checks.
// Load-bearing assertions: verdicts keep agreeing with the direct decider
// on the quiesced configuration, the overlap counters move, and the run is
// race-free (the TSan CI job builds this test — the narrow LTR lock path
// is exactly the new read/write concurrency this certifies).
TEST(EngineConcurrencyTest, LtrChecksOverlapFootprintDisjointApplies) {
  auto schema = std::make_shared<Schema>();
  DomainId d0 = schema->AddDomain("D0");
  DomainId d1 = schema->AddDomain("D1");
  RelationId a0 = *schema->AddRelation("A0", {{"x", d0}, {"y", d0}});
  RelationId b0 = *schema->AddRelation("B0", {{"x", d0}, {"y", d0}});
  RelationId a1 = *schema->AddRelation("A1", {{"x", d1}, {"y", d1}});
  AccessMethodSet acs(schema.get());
  AccessMethodId ma0 = *acs.Add("a0", a0, {0}, /*dependent=*/false);
  (void)*acs.Add("b0", b0, {0}, /*dependent=*/false);
  AccessMethodId ma1 = *acs.Add("a1", a1, {0}, /*dependent=*/false);

  Configuration conf(schema.get());
  std::vector<Value> c0s, c1s;
  for (int i = 0; i < 4; ++i) {
    c0s.push_back(schema->InternConstant("c0_" + std::to_string(i)));
    conf.AddSeedConstant(c0s.back(), d0);
    c1s.push_back(schema->InternConstant("c1_" + std::to_string(i)));
    conf.AddSeedConstant(c1s.back(), d1);
  }
  conf.AddFact(Fact(a0, {c0s[0], c0s[1]}));

  // Q0 = ∃x,y,z. A0(x,y) ∧ B0(y,z): footprint {A0, B0}, disjoint from the
  // applier's relation A1 (one stripe per relation by default).
  ConjunctiveQuery q;
  VarId x = q.AddVar("x", d0);
  VarId y = q.AddVar("y", d0);
  VarId z = q.AddVar("z", d0);
  q.atoms.push_back(Atom{a0, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{b0, {Term::MakeVar(y), Term::MakeVar(z)}});
  UnionQuery uq;
  uq.disjuncts.push_back(q);

  RelevanceEngine engine(*schema, acs, conf);
  QueryId qid = *engine.RegisterQuery(uq);
  std::vector<Access> probes;
  for (const Value& c : c0s) probes.push_back(Access{ma0, {c}});

  std::atomic<bool> stop{false};
  std::atomic<int> check_errors{0};
  std::atomic<long> checks_done{0};
  std::thread checker([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Access& a : probes) {
        CheckOutcome out = engine.CheckLongTerm(qid, a);
        if (!out.ok()) check_errors.fetch_add(1);
      }
      checks_done.fetch_add(1);
    }
  });
  // Wait until the checker is demonstrably live, then replay idempotent
  // group-1 applies until an apply observes an active LTR check (bounded:
  // the checker loops continuously, so overlap shows up almost
  // immediately once both threads run).
  while (checks_done.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int round = 0; round < 5000; ++round) {
    for (int i = 0; i < 4; ++i) {
      Access acc{ma1, {c1s[i]}};
      auto added =
          engine.ApplyResponse(acc, {Fact(a1, {c1s[i], c1s[(i + 1) % 4]})});
      if (!added.ok()) check_errors.fetch_add(1);
    }
    if (engine.stats().overlapped_applies > 0) break;
  }
  stop.store(true);
  checker.join();
  ASSERT_EQ(check_errors.load(), 0);

  EngineStats st = engine.stats();
  EXPECT_GT(st.ltr_checks, 0u);
  EXPECT_GT(st.overlapped_applies + st.overlapped_checks, 0u)
      << "LTR-only workload must overlap footprint-disjoint applies";

  // Quiesced verdicts agree with the direct decider (narrow locking must
  // not change semantics).
  Configuration final_conf = engine.SnapshotConfig();
  RelevanceAnalyzer analyzer(*schema, acs);
  for (const Access& a : probes) {
    CheckOutcome ltr = engine.CheckLongTerm(qid, a);
    Result<bool> direct = analyzer.LongTerm(final_conf, a, uq);
    ASSERT_TRUE(ltr.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(ltr.relevant, *direct);
  }
}

// Per-binding scans under concurrency: FirstRelevant pins the query's
// relations plus the relations of the methods its filter admits, never
// the whole pending list. IR scans run over a list mixing accesses of the
// query's relations with accesses of a foreign relation (filtered out,
// as the stream registry's applicability filter does) while another
// thread applies to that foreign relation. Load-bearing assertions: the
// applies overlap the scans (counters), every scan returns the index a
// sequential scan returns before any apply (foreign growth cannot move an
// IR verdict), the quiesced scans agree with the per-access loop, and the
// run is race-free — the TSan CI job builds this test.
TEST(EngineConcurrencyTest, BindingScansOverlapFootprintDisjointApplies) {
  auto schema = std::make_shared<Schema>();
  DomainId d0 = schema->AddDomain("D0");
  DomainId d1 = schema->AddDomain("D1");
  RelationId a0 = *schema->AddRelation("A0", {{"x", d0}, {"y", d0}});
  RelationId b0 = *schema->AddRelation("B0", {{"x", d0}, {"y", d0}});
  RelationId a1 = *schema->AddRelation("A1", {{"x", d1}, {"y", d1}});
  AccessMethodSet acs(schema.get());
  (void)*acs.Add("a0", a0, {0}, /*dependent=*/true);
  (void)*acs.Add("b0", b0, {0}, /*dependent=*/true);
  AccessMethodId ma1 = *acs.Add("a1", a1, {0}, /*dependent=*/true);

  Configuration conf(schema.get());
  std::vector<Value> c0s, c1s;
  for (int i = 0; i < 4; ++i) {
    c0s.push_back(schema->InternConstant("c0_" + std::to_string(i)));
    conf.AddSeedConstant(c0s.back(), d0);
    c1s.push_back(schema->InternConstant("c1_" + std::to_string(i)));
    conf.AddSeedConstant(c1s.back(), d1);
  }
  conf.AddFact(Fact(a0, {c0s[0], c0s[1]}));
  conf.AddFact(Fact(b0, {c0s[2], c0s[3]}));

  // Binding-query shapes over {A0, B0}: Q0 = A0(c0_0, y) ∧ B0(y, z)
  // (relevant: b0(c0_1) completes it), Q1 = A0(c0_2, y) ∧ B0(y, c0_0)
  // (irrelevant, not certain) and Q2 = B0(c0_2, z) (certain).
  auto boolean_query = [&](std::vector<Atom> atoms, int num_vars) {
    ConjunctiveQuery q;
    for (int v = 0; v < num_vars; ++v) q.AddVar("V" + std::to_string(v), d0);
    q.atoms = std::move(atoms);
    UnionQuery uq;
    uq.disjuncts.push_back(std::move(q));
    return uq;
  };
  const Term v0 = Term::MakeVar(0);
  const Term v1 = Term::MakeVar(1);
  auto c = [&](int i) { return Term::MakeConst(c0s[i]); };
  std::vector<UnionQuery> queries = {
      boolean_query({Atom{a0, {c(0), v0}}, Atom{b0, {v0, v1}}}, 2),
      boolean_query({Atom{a0, {c(2), v0}}, Atom{b0, {v0, c(0)}}}, 1),
      boolean_query({Atom{b0, {c(2), v0}}}, 1)};

  RelevanceEngine engine(*schema, acs, conf);
  std::vector<QueryId> qids;
  for (UnionQuery& q : queries) {
    ASSERT_TRUE(q.Validate(*schema).ok());
    qids.push_back(*engine.RegisterQuery(q));
  }
  // The frontier: a0/b0 accesses over D0 values and a1 accesses over D1
  // values, interleaved by discovery order.
  const std::vector<Access> pending = engine.PendingAccesses();
  auto in_footprint = [&](AccessMethodId m) {
    const RelationId rel = acs.method(m).relation;
    return rel == a0 || rel == b0;
  };
  ASSERT_TRUE(std::any_of(
      pending.begin(), pending.end(),
      [&](const Access& a) { return !in_footprint(a.method); }));
  std::vector<int> expected;
  for (QueryId qid : qids) {
    expected.push_back(engine
                           .FirstRelevant(qid, CheckKind::kImmediate,
                                          pending.data(), pending.size(),
                                          in_footprint, true)
                           .index);
  }
  ASSERT_GE(expected[0], 0);
  ASSERT_EQ(expected[1], -1);
  ASSERT_EQ(expected[2], -1);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<long> scans_done{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t q = 0; q < qids.size(); ++q) {
          RelevanceEngine::ScanOutcome r = engine.FirstRelevant(
              qids[q], CheckKind::kImmediate, pending.data(), pending.size(),
              in_footprint, true);
          if (r.index != expected[q]) mismatches.fetch_add(1);
        }
        scans_done.fetch_add(1);
      }
    });
  }
  while (scans_done.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  // Foreign applies over existing values (the active domain stays put, so
  // the applies need only A1's stripe and the shared Adom lock).
  std::atomic<int> apply_errors{0};
  for (int round = 0; round < 5000; ++round) {
    for (int i = 0; i < 4; ++i) {
      Access acc{ma1, {c1s[i]}};
      if (!engine.ApplyResponse(acc, {Fact(a1, {c1s[i], c1s[(i + 1) % 4]})})
               .ok()) {
        apply_errors.fetch_add(1);
      }
    }
    if (engine.stats().overlapped_applies > 0 && round >= 50) break;
  }
  stop.store(true);
  for (std::thread& t : scanners) t.join();
  ASSERT_EQ(apply_errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "foreign applies must not move an IR scan's verdict";

  EngineStats st = engine.stats();
  EXPECT_GT(st.ir_checks, 0u);
  EXPECT_GT(st.overlapped_applies + st.overlapped_checks, 0u)
      << "binding scans must overlap footprint-disjoint applies";

  // Quiesced: each scan agrees with the per-access loop it replaces.
  for (size_t q = 0; q < qids.size(); ++q) {
    int loop_index = -1;
    for (size_t i = 0; i < pending.size() && loop_index < 0; ++i) {
      if (in_footprint(pending[i].method) &&
          engine.CheckImmediate(qids[q], pending[i]).relevant) {
        loop_index = static_cast<int>(i);
      }
    }
    EXPECT_EQ(loop_index, expected[q]);
    EXPECT_EQ(engine
                  .FirstRelevant(qids[q], CheckKind::kImmediate,
                                 pending.data(), pending.size(), in_footprint,
                                 true)
                  .index,
              expected[q]);
  }
}

// Standing-stream maintenance under concurrency: recheck waves on one
// stream, triggered by hit-relation applies from two threads at once,
// overlap each other, footprint-disjoint applies and snapshot readers.
// Load-bearing assertions: the stream's final per-binding verdicts agree
// with a fresh per-binding evaluation on the quiesced configuration,
// foreign applies skip every binding (counters), and the run is race-free
// — the TSan CI job builds this test, certifying the registry's
// stamp/wave discipline against the engine's striped locks.
TEST(EngineConcurrencyTest, StreamRechecksOverlapFootprintDisjointApplies) {
  auto schema = std::make_shared<Schema>();
  DomainId d0 = schema->AddDomain("D0");
  DomainId d1 = schema->AddDomain("D1");
  RelationId a0 = *schema->AddRelation("A0", {{"x", d0}, {"y", d0}});
  RelationId b0 = *schema->AddRelation("B0", {{"x", d0}, {"y", d0}});
  RelationId a1 = *schema->AddRelation("A1", {{"x", d1}, {"y", d1}});
  AccessMethodSet acs(schema.get());
  AccessMethodId ma0 = *acs.Add("a0", a0, {0}, /*dependent=*/false);
  AccessMethodId mb0 = *acs.Add("b0", b0, {0}, /*dependent=*/false);
  AccessMethodId ma1 = *acs.Add("a1", a1, {0}, /*dependent=*/false);

  Configuration conf(schema.get());
  std::vector<Value> c0s, c1s;
  for (int i = 0; i < 4; ++i) {
    c0s.push_back(schema->InternConstant("c0_" + std::to_string(i)));
    conf.AddSeedConstant(c0s.back(), d0);
    c1s.push_back(schema->InternConstant("c1_" + std::to_string(i)));
    conf.AddSeedConstant(c1s.back(), d1);
  }

  // K-ary stream Q(X) :- A0(X, Y), B0(Y, Z): footprint {A0, B0}; the
  // disjoint applier writes A1 only.
  ConjunctiveQuery q;
  VarId x = q.AddVar("X", d0);
  VarId y = q.AddVar("Y", d0);
  VarId z = q.AddVar("Z", d0);
  q.atoms.push_back(Atom{a0, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{b0, {Term::MakeVar(y), Term::MakeVar(z)}});
  q.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamId sid = *registry.Register(uq, StreamOptions{});

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  // Foreign applier: A1 facts over existing values — every apply must take
  // the stream's O(1) skip path while hit-driven waves run concurrently.
  std::thread foreign([&]() {
    for (int round = 0; round < 400; ++round) {
      for (int i = 0; i < 4; ++i) {
        Access acc{ma1, {c1s[i]}};
        if (!engine.ApplyResponse(acc, {Fact(a1, {c1s[i], c1s[(i + 1) % 4]})})
                 .ok()) {
          errors.fetch_add(1);
        }
      }
    }
  });
  // Two hit appliers, one on A0 and one on B0 (idempotent sets,
  // repeated): every apply bumps the performed counter of a footprint
  // relation, so each one triggers a recheck wave over the stream's live
  // bindings, and the two threads' waves contend for the stream.
  std::thread hit_a([&]() {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 3; ++i) {
        Access acc{ma0, {c0s[i]}};
        if (!engine.ApplyResponse(acc, {Fact(a0, {c0s[i], c0s[i + 1]})})
                 .ok()) {
          errors.fetch_add(1);
        }
      }
    }
  });
  std::thread hit_b([&]() {
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 3; ++i) {
        Access bcc{mb0, {c0s[i]}};
        if (!engine.ApplyResponse(bcc, {Fact(b0, {c0s[i], c0s[i]})}).ok()) {
          errors.fetch_add(1);
        }
      }
    }
  });
  // Reader: polls deltas and snapshots while waves land.
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot(sid);
      (void)registry.Poll(sid);
      (void)registry.AnyRelevant(sid);
      (void)engine.stats();
    }
  });
  foreign.join();
  hit_a.join();
  hit_b.join();
  stop.store(true);
  reader.join();
  ASSERT_EQ(errors.load(), 0);

  EngineStats st = engine.stats();
  EXPECT_GT(st.stream_rechecks, 0u);
  EXPECT_GT(st.stream_skips, 0u)
      << "foreign applies must skip the whole stream";
  ASSERT_EQ(st.stream_rechecks_by_relation.size(),
            schema->num_relations() + 1);
  EXPECT_EQ(st.stream_rechecks_by_relation[a1], 0u)
      << "A1 applies must never be charged with stream rechecks";

  // Quiesced: per-binding verdicts equal a fresh evaluation over the final
  // configuration (fresh head constants seeded, as the one-shot wrappers
  // do).
  Configuration final_conf = engine.SnapshotConfig();
  std::vector<Access> pending = engine.PendingAccesses();
  StreamSnapshot snap = registry.Snapshot(sid);
  ASSERT_EQ(snap.bindings_tracked, 5u);  // 4 adom values + 1 fresh
  for (const BindingView& bv : snap.bindings) {
    ConjunctiveQuery inst = q;
    std::vector<std::optional<Value>> binding(inst.num_vars());
    binding[x] = bv.binding[0];
    inst = Specialize(inst, binding);
    inst.head.clear();
    UnionQuery q_b;
    q_b.disjuncts.push_back(inst);
    OverlayConfiguration seeded(&final_conf);
    seeded.AddSeedConstant(bv.binding[0], d0);
    const bool expect_certain = EvalBool(q_b, seeded);
    EXPECT_EQ(bv.certain, expect_certain);
    bool expect_relevant = false;
    if (!expect_certain) {
      for (const Access& a : pending) {
        if (IsImmediatelyRelevant(seeded, acs, a, q_b)) {
          expect_relevant = true;
          break;
        }
      }
    }
    EXPECT_EQ(bv.relevant, expect_relevant);
  }
}

// Value-gated waves under concurrency: two hit appliers land facts whose
// position-0 value names a head binding (so waves narrow through the
// {slot, value} index and restamp everything else), their waves on the
// one stream overlapping, while a footprint-disjoint applier and
// snapshot readers run on other threads. Load-bearing assertions: final
// per-binding verdicts equal a fresh evaluation on the quiesced
// configuration, the gate demonstrably fired, and the run is race-free —
// the TSan CI job builds this test, certifying the gated restamp path and
// the shared pending-frontier cache against concurrent applies.
TEST(EngineConcurrencyTest, ValueGatedWavesOverlapFootprintDisjointApplies) {
  auto schema = std::make_shared<Schema>();
  DomainId d0 = schema->AddDomain("D0");
  DomainId d1 = schema->AddDomain("D1");
  RelationId a0 = *schema->AddRelation("A0", {{"x", d0}, {"y", d0}});
  RelationId b0 = *schema->AddRelation("B0", {{"x", d0}, {"y", d0}});
  RelationId a1 = *schema->AddRelation("A1", {{"x", d1}, {"y", d1}});
  AccessMethodSet acs(schema.get());
  AccessMethodId ma0 = *acs.Add("a0", a0, {0}, /*dependent=*/false);
  AccessMethodId mb0 = *acs.Add("b0", b0, {0}, /*dependent=*/false);
  AccessMethodId ma1 = *acs.Add("a1", a1, {0}, /*dependent=*/false);

  Configuration conf(schema.get());
  std::vector<Value> c0s, c1s;
  for (int i = 0; i < 4; ++i) {
    c0s.push_back(schema->InternConstant("c0_" + std::to_string(i)));
    conf.AddSeedConstant(c0s.back(), d0);
    c1s.push_back(schema->InternConstant("c1_" + std::to_string(i)));
    conf.AddSeedConstant(c1s.back(), d1);
  }

  // Q(X) :- A0(X, Y), B0(Y, Z): A0 facts name the binding at position 0,
  // so A0 hit waves are value-gated; B0 facts fall back (unconstrained).
  ConjunctiveQuery q;
  VarId x = q.AddVar("X", d0);
  VarId y = q.AddVar("Y", d0);
  VarId z = q.AddVar("Z", d0);
  q.atoms.push_back(Atom{a0, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{b0, {Term::MakeVar(y), Term::MakeVar(z)}});
  q.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamId sid = *registry.Register(uq, StreamOptions{});

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  // Foreign applier: A1 facts, footprint-disjoint — the stream-level O(1)
  // skip must interleave with gated waves.
  std::thread foreign([&]() {
    for (int round = 0; round < 400; ++round) {
      for (int i = 0; i < 4; ++i) {
        Access acc{ma1, {c1s[i]}};
        if (!engine.ApplyResponse(acc, {Fact(a1, {c1s[i], c1s[(i + 1) % 4]})})
                 .ok()) {
          errors.fetch_add(1);
        }
      }
    }
  });
  // Two hit appliers, splitting the bindings: A0 facts naming one binding
  // each (gated narrow waves, redundant replays exercising the frontier-
  // only delta) plus occasional B0 facts (unconstrained fallback waves).
  auto hit_applier = [&](int h) {
    for (int round = 0; round < 50; ++round) {
      for (int i = h; i < 3; i += 2) {
        Access acc{ma0, {c0s[i]}};
        if (!engine.ApplyResponse(acc, {Fact(a0, {c0s[i], c0s[i + 1]})})
                 .ok()) {
          errors.fetch_add(1);
        }
      }
      if (round % 8 == 4 * h) {
        Access bcc{mb0, {c0s[round % 3]}};
        if (!engine
                 .ApplyResponse(bcc,
                                {Fact(b0, {c0s[round % 3], c0s[round % 3]})})
                 .ok()) {
          errors.fetch_add(1);
        }
      }
    }
  };
  std::thread hit0([&]() { hit_applier(0); });
  std::thread hit1([&]() { hit_applier(1); });
  // Reader: polls deltas and snapshots while gated waves land.
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot(sid);
      (void)registry.Poll(sid);
      (void)registry.AnyRelevant(sid);
      (void)engine.stats();
    }
  });
  foreign.join();
  hit0.join();
  hit1.join();
  stop.store(true);
  reader.join();
  ASSERT_EQ(errors.load(), 0);

  EngineStats st = engine.stats();
  EXPECT_GT(st.stream_value_gate_skips, 0u)
      << "A0 hit waves must narrow through the value index";
  EXPECT_GT(st.stream_skips, 0u)
      << "foreign applies must skip the whole stream";
  EXPECT_EQ(st.stream_rechecks_by_relation[a1], 0u);

  // Quiesced: per-binding verdicts equal a fresh evaluation over the final
  // configuration — gated restamps must never have parked a wrong verdict.
  Configuration final_conf = engine.SnapshotConfig();
  std::vector<Access> pending = engine.PendingAccesses();
  StreamSnapshot snap = registry.Snapshot(sid);
  ASSERT_EQ(snap.bindings_tracked, 5u);  // 4 adom values + 1 fresh
  for (const BindingView& bv : snap.bindings) {
    ConjunctiveQuery inst = q;
    std::vector<std::optional<Value>> binding(inst.num_vars());
    binding[x] = bv.binding[0];
    inst = Specialize(inst, binding);
    inst.head.clear();
    UnionQuery q_b;
    q_b.disjuncts.push_back(inst);
    OverlayConfiguration seeded(&final_conf);
    seeded.AddSeedConstant(bv.binding[0], d0);
    const bool expect_certain = EvalBool(q_b, seeded);
    EXPECT_EQ(bv.certain, expect_certain);
    bool expect_relevant = false;
    if (!expect_certain) {
      for (const Access& a : pending) {
        if (IsImmediatelyRelevant(seeded, acs, a, q_b)) {
          expect_relevant = true;
          break;
        }
      }
    }
    EXPECT_EQ(bv.relevant, expect_relevant);
  }
}

// Per-domain Adom versioning under concurrency: two appliers mint fresh
// values in *distinct* domains while two streams track one domain each.
// Every apply grows the active domain, which before per-domain stamps
// forced a full wave over every stream. Load-bearing assertions: each
// stream's waves recheck exactly its own newborn bindings (the foreign-
// domain stream takes the O(1) skip path — pinned through the per-
// relation recheck attribution), the delta-gated waves report zero
// gate_fallback_adom, and the run is race-free — the TSan CI job builds
// this test, certifying the per-domain version brackets (engine-side
// dense vector + per-stream stamp tails) against concurrent growth. A
// second phase then runs hit waves on one stream from two appliers that
// mint into the same domain at once.
TEST(EngineConcurrencyTest, PerDomainAdomGrowthKeepsDisjointStreamsSkipOnly) {
  auto schema = std::make_shared<Schema>();
  DomainId d0 = schema->AddDomain("D0");
  DomainId d1 = schema->AddDomain("D1");
  // Each stream's query reads a relation nobody writes; the appliers write
  // the w* relations, so every wave on a stream is purely Adom-driven.
  RelationId a0 = *schema->AddRelation("A0", {{"x", d0}, {"y", d0}});
  RelationId a1 = *schema->AddRelation("A1", {{"x", d1}, {"y", d1}});
  RelationId w0 = *schema->AddRelation("W0", {{"x", d0}, {"y", d0}});
  RelationId w1 = *schema->AddRelation("W1", {{"x", d1}, {"y", d1}});
  AccessMethodSet acs(schema.get());
  // The free methods keep a standing pending access per query relation, so
  // every uncertain binding stays relevant — the irrelevant-uncertain
  // residual of the delta-gated Adom waves must be empty.
  (void)*acs.Add("a0_free", a0, {}, /*dependent=*/false);
  (void)*acs.Add("a1_free", a1, {}, /*dependent=*/false);
  AccessMethodId mw0 = *acs.Add("w0", w0, {0}, /*dependent=*/true);
  AccessMethodId mw1 = *acs.Add("w1", w1, {0}, /*dependent=*/true);

  Configuration conf(schema.get());
  std::vector<Value> c0s, c1s;
  for (int i = 0; i < 4; ++i) {
    c0s.push_back(schema->InternConstant("c0_" + std::to_string(i)));
    conf.AddSeedConstant(c0s.back(), d0);
    c1s.push_back(schema->InternConstant("c1_" + std::to_string(i)));
    conf.AddSeedConstant(c1s.back(), d1);
  }

  auto unary = [](RelationId rel, DomainId dom) {
    ConjunctiveQuery q;
    VarId x = q.AddVar("X", dom);
    VarId y = q.AddVar("Y", dom);
    q.atoms.push_back(Atom{rel, {Term::MakeVar(x), Term::MakeVar(y)}});
    q.head = {x};
    UnionQuery uq;
    uq.disjuncts.push_back(q);
    return uq;
  };
  UnionQuery uq0 = unary(a0, d0);
  UnionQuery uq1 = unary(a1, d1);
  ASSERT_TRUE(uq0.Validate(*schema).ok());
  ASSERT_TRUE(uq1.Validate(*schema).ok());

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamOptions sopts;  // IR-only: per-domain Adom stamps active
  StreamId sid0 = *registry.Register(uq0, sopts);
  StreamId sid1 = *registry.Register(uq1, sopts);

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  constexpr int kMints = 40;
  // Fresh values are interned up front (the schema's intern table is not
  // a concurrent structure); they enter the active domain only when the
  // appliers land them.
  std::vector<Value> fresh0, fresh1;
  for (int i = 0; i < kMints; ++i) {
    fresh0.push_back(schema->InternConstant("g0_" + std::to_string(i)));
    fresh1.push_back(schema->InternConstant("g1_" + std::to_string(i)));
  }
  // Two growth appliers, one per domain: every apply mints one fresh
  // value, so every apply is an Adom-growing event.
  auto applier = [&](AccessMethodId m, RelationId rel,
                     const std::vector<Value>& seeds,
                     const std::vector<Value>& fresh) {
    for (int i = 0; i < kMints; ++i) {
      const Value& in = seeds[i % seeds.size()];
      Access acc{m, {in}};
      std::vector<Fact> response = {Fact(rel, {in, fresh[i]})};
      if (!engine.ApplyResponse(acc, response).ok()) {
        errors.fetch_add(1);
      }
    }
  };
  std::thread grow0([&]() { applier(mw0, w0, c0s, fresh0); });
  std::thread grow1([&]() { applier(mw1, w1, c1s, fresh1); });
  // Reader: snapshots both streams while growth waves land.
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot(sid0);
      (void)registry.Snapshot(sid1);
      (void)registry.AnyRelevant(sid0);
      (void)engine.stats();
    }
  });
  grow0.join();
  grow1.join();
  stop.store(true);
  reader.join();
  ASSERT_EQ(errors.load(), 0);

  // Each stream minted exactly its own domain's newborns.
  StreamSnapshot snap0 = registry.Snapshot(sid0);
  StreamSnapshot snap1 = registry.Snapshot(sid1);
  EXPECT_EQ(snap0.bindings_tracked, 4u + kMints + 1);  // seeds+minted+fresh
  EXPECT_EQ(snap1.bindings_tracked, 4u + kMints + 1);
  // Nothing was ever written to the query relations: every binding must
  // have stayed uncertain and relevant (the standing free access).
  for (const StreamSnapshot* snap : {&snap0, &snap1}) {
    for (const BindingView& bv : snap->bindings) {
      EXPECT_FALSE(bv.certain);
      EXPECT_TRUE(bv.relevant);
    }
  }

  // The sharp wave contract: a W0 apply's wave on stream 0 evaluates
  // exactly the one newborn binding (relevant survivors restamp across
  // the per-domain bracket; the residual is empty), and stream 1 skips it
  // outright — so each relation's recheck attribution is exactly kMints.
  EngineStats st = engine.stats();
  ASSERT_EQ(st.stream_rechecks_by_relation.size(),
            schema->num_relations() + 1);
  EXPECT_EQ(st.stream_rechecks_by_relation[w0], static_cast<uint64_t>(kMints));
  EXPECT_EQ(st.stream_rechecks_by_relation[w1], static_cast<uint64_t>(kMints));
  EXPECT_EQ(st.stream_rechecks_by_relation[a0], 0u);
  EXPECT_EQ(st.stream_rechecks_by_relation[a1], 0u);
  EXPECT_EQ(st.stream_value_gate_newborn, 2u * kMints);
  EXPECT_EQ(st.stream_value_gate_fallback_adom, 0u);
  EXPECT_GT(st.stream_value_gate_skips, 0u)
      << "relevant survivors must restamp across the per-domain bracket";
  EXPECT_GT(st.stream_skips, 0u)
      << "foreign-domain growth must take the O(1) skip path";

  // Two appliers now mint into D0 at once, so stream 0's waves may land
  // out of version order and then evaluate survivors they cannot restamp.
  // Still, every newborn is evaluated exactly once, nothing falls back,
  // no verdict moves, and stream 1 gains no binding.
  std::vector<Value> more_a, more_b;
  for (int i = 0; i < kMints; ++i) {
    more_a.push_back(schema->InternConstant("h0_" + std::to_string(i)));
    more_b.push_back(schema->InternConstant("k0_" + std::to_string(i)));
  }
  std::thread grow0a([&]() { applier(mw0, w0, c0s, more_a); });
  std::thread grow0b([&]() { applier(mw0, w0, c0s, more_b); });
  grow0a.join();
  grow0b.join();
  ASSERT_EQ(errors.load(), 0);
  snap0 = registry.Snapshot(sid0);
  EXPECT_EQ(snap0.bindings_tracked, 4u + 3 * kMints + 1);
  EXPECT_EQ(registry.Snapshot(sid1).bindings_tracked, 4u + kMints + 1);
  for (const BindingView& bv : snap0.bindings) {
    EXPECT_FALSE(bv.certain);
    EXPECT_TRUE(bv.relevant);
  }
  const EngineStats after = engine.stats();
  EXPECT_GE(after.stream_rechecks_by_relation[w0], 3u * kMints);
  EXPECT_EQ(after.stream_rechecks_by_relation[w1],
            static_cast<uint64_t>(kMints));
  EXPECT_EQ(after.stream_value_gate_newborn, 4u * kMints);
  EXPECT_EQ(after.stream_value_gate_fallback_adom, 0u);
}

// Observability under concurrency: trace spans and histograms record from
// every hot path (appliers, checkers) while footprint-disjoint applies
// overlap checks. Load-bearing assertions: histogram counts reconcile
// exactly with the engine's own counters (lock-free recording loses
// nothing), every event the ring returns is internally coherent (no torn
// slots), and the run is race-free — the TSan CI job builds this test to
// certify the seqlock ring against the striped locks.
TEST(EngineConcurrencyTest, ObsSpansRecordWhileDisjointAppliesOverlap) {
  constexpr int kGroups = 3;
  MultiRelationFamily f = MakeMultiRelationFamily(kGroups, 4);
  const Scenario& s = f.scenario;

  EngineOptions opts;
  opts.obs.trace_capacity = 512;
  opts.obs.trace_sample_period = 1;  // record every apply/check/wave
  RelevanceEngine engine(*s.schema, s.acs, s.conf, opts);
  std::vector<QueryId> qids;
  for (const UnionQuery& q : f.queries) {
    qids.push_back(*engine.RegisterQuery(q));
  }
  std::vector<GroupScript> scripts = BuildScripts(f);
  std::vector<Access> pending = engine.PendingAccesses();
  ASSERT_FALSE(pending.empty());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  constexpr int kApplierRounds = 10;
  for (int g = 0; g < kGroups; ++g) {
    threads.emplace_back([&, g]() {
      for (int round = 0; round < kApplierRounds; ++round) {
        for (const auto& [access, response] : scripts[g].steps) {
          if (!engine.ApplyResponse(access, response).ok()) {
            errors.fetch_add(1);
          }
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c]() {
      Rng rng(77 + c);
      // At least one pass per checker, even when a loaded host lets the
      // appliers finish before this thread first runs.
      do {
        QueryId qid = qids[rng.Below(qids.size())];
        CheckKind kind = rng.Chance(0.5) ? CheckKind::kImmediate
                                         : CheckKind::kLongTerm;
        for (const Access& a : pending) (void)Check(engine, qid, kind, a);
        // Trace readers race the writers on purpose: torn slots must be
        // dropped, never returned.
        for (const TraceEvent& e : engine.obs().trace().LastEvents(32)) {
          if (e.kind == TraceEventKind::kNone) errors.fetch_add(1);
        }
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int g = 0; g < kGroups; ++g) threads[g].join();
  stop.store(true);
  for (size_t t = kGroups; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(errors.load(), 0);

  // Histograms reconcile exactly with the counters the same paths bump.
  EngineStats st = engine.stats();
  ObsSnapshot obs = engine.obs().Snapshot();
  EXPECT_EQ(obs.apply_ns.count, st.responses_applied);
  EXPECT_EQ(obs.ir_decider_ns.count, st.uncached_ir_checks);
  EXPECT_EQ(obs.ltr_decider_ns.count, st.uncached_ltr_checks);

  // The ring saw one event per apply and per check (every site sampled).
  const TraceBuffer& trace = engine.obs().trace();
  EXPECT_GE(trace.total_recorded(), st.responses_applied + st.checks());

  // Quiesced: the window decodes with coherent per-kind payloads. The
  // ring's contract allows *drops* (a slot whose last committer was a
  // lapped slower writer stays rejected), never torn events — so the
  // window may be slightly short, but what it returns must be ordered
  // and internally consistent.
  std::vector<TraceEvent> events = trace.LastEvents(trace.capacity());
  const uint64_t window =
      std::min<uint64_t>(trace.capacity(), trace.total_recorded());
  ASSERT_LE(events.size(), window);
  EXPECT_GE(events.size(), window - window / 8)
      << "quiesced reads may drop lapped slots, not whole swaths";
  ASSERT_FALSE(events.empty());
  const size_t num_relations = s.schema->num_relations();
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) {
      EXPECT_GT(e.seq, events[i - 1].seq);
    }
    switch (e.kind) {
      case TraceEventKind::kApply:
        EXPECT_LT(e.id, num_relations);
        EXPECT_EQ(e.a - e.b, e.id2) << "version bracket must equal facts";
        break;
      case TraceEventKind::kCheck:
        EXPECT_LE(e.detail, 1u);  // 0 = IR, 1 = LTR
        break;
      case TraceEventKind::kWave:
        break;  // no stream registered: waves are unexpected but harmless
      default:
        ADD_FAILURE() << "torn or unknown event kind at seq " << e.seq;
    }
  }
  EXPECT_FALSE(trace.DumpJson(16).empty());
}

// A marketplace whose Flag values (tags) only Label's output produces:
// binding queries Q(i) :- Listing(i, S), Vetted(S), Flag(T), one per item
// plus one over a fresh item (a seeded view), and LTR scans over the
// listing accesses, then the label accesses. Every method is dependent.
struct Marketplace {
  static constexpr int kItems = 4;

  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  DomainId item = schema->AddDomain("Item");
  DomainId seller = schema->AddDomain("Seller");
  DomainId tag = schema->AddDomain("Tag");
  RelationId listing =
      *schema->AddRelation("Listing", {{"item", item}, {"seller", seller}});
  RelationId vetted = *schema->AddRelation("Vetted", {{"s", seller}});
  RelationId label =
      *schema->AddRelation("Label", {{"item", item}, {"tag", tag}});
  RelationId flag = *schema->AddRelation("Flag", {{"t", tag}});
  AccessMethodSet acs{schema.get()};
  AccessMethodId m_listing = *acs.Add("listing", listing, {0}, true);
  AccessMethodId m_vetted = *acs.Add("vetted", vetted, {0}, true);
  AccessMethodId m_label = *acs.Add("label", label, {0}, true);
  AccessMethodId m_flag = *acs.Add("flag", flag, {0}, true);
  Configuration conf{schema.get()};
  std::vector<Value> items, sellers, tags;
  std::vector<UnionQuery> queries;
  std::vector<Access> scanned;  ///< listing accesses first, then label

  explicit Marketplace(int num_sellers) {
    for (int i = 0; i < kItems; ++i) {
      items.push_back(schema->InternConstant("i" + std::to_string(i)));
      tags.push_back(schema->InternConstant("t" + std::to_string(i)));
    }
    for (int i = 0; i < num_sellers; ++i) {
      sellers.push_back(schema->InternConstant("s" + std::to_string(i)));
    }
    for (const Value& v : items) conf.AddSeedConstant(v, item);
    std::vector<Value> heads = items;
    heads.push_back(schema->InternConstant("i_fresh"));
    for (const Value& head : heads) {
      ConjunctiveQuery cq;
      const VarId sv = cq.AddVar("S", seller);
      const VarId tv = cq.AddVar("T", tag);
      cq.atoms.push_back(
          Atom{listing, {Term::MakeConst(head), Term::MakeVar(sv)}});
      cq.atoms.push_back(Atom{vetted, {Term::MakeVar(sv)}});
      cq.atoms.push_back(Atom{flag, {Term::MakeVar(tv)}});
      UnionQuery uq;
      uq.disjuncts.push_back(std::move(cq));
      queries.push_back(std::move(uq));
    }
    for (const Value& v : items) scanned.push_back(Access{m_listing, {v}});
    for (const Value& v : items) scanned.push_back(Access{m_label, {v}});
  }

  /// Engine options for the scans: a horizon of no auxiliary facts.
  static EngineOptions Options() {
    EngineOptions opts;
    opts.relevance.containment.max_aux_facts = 0;
    return opts;
  }

  /// Index of the first LTR-relevant scanned access for `q`, or -1.
  int Scan(RelevanceEngine& e, QueryId q) const {
    return e
        .FirstRelevant(q, CheckKind::kLongTerm, scanned.data(),
                       scanned.size(), [](AccessMethodId) { return true; },
                       /*conservative_on_unknown=*/false)
        .index;
  }

  /// Lands Fact(rel, {items[i], out}) through method `m` on items[i].
  Status Apply(RelevanceEngine& e, AccessMethodId m, RelationId rel, int i,
               Value out) const {
    return e.ApplyResponse(Access{m, {items[i]}}, {Fact(rel, {items[i], out})})
        .status();
  }
};

// The achievability memo under concurrent checks, over the marketplace
// decided with a horizon of no auxiliary facts: while the active domain
// has no tag, no query is achievable from the view, so the memo's
// negative stamp is written and read, listing accesses are not relevant,
// and label accesses are (their generic response carries a tag). Three
// threads run LTR FirstRelevant scans, while an applier grows the active
// domain with sellers and then tags; the first tag makes every query
// achievable and the memo sticks. Load-bearing assertions: once
// quiesced, every thread's scans equal a sequential recheck on a fresh
// engine over the final configuration; the memo answered checks; and the
// run is race-free — the TSan CI job builds this test.
TEST(EngineConcurrencyTest, AchievabilityMemoUnderConcurrentChecks) {
  constexpr int kItems = Marketplace::kItems;
  const Marketplace m(3 * kItems);
  RelevanceEngine engine(*m.schema, m.acs, m.conf, Marketplace::Options());
  std::vector<QueryId> qids;
  for (const UnionQuery& q : m.queries) {
    qids.push_back(*engine.RegisterQuery(q));
  }
  // No tag yet: the first label access is the first relevant one.
  for (QueryId q : qids) ASSERT_EQ(m.Scan(engine, q), kItems);

  constexpr int kCheckers = 3;
  std::atomic<bool> stop{false};
  std::atomic<long> rounds{0};  ///< scan rounds completed, all checkers
  std::atomic<int> errors{0};
  std::vector<std::vector<int>> final_scans(kCheckers);
  std::vector<std::thread> checkers;
  for (int c = 0; c < kCheckers; ++c) {
    checkers.emplace_back([&, c]() {
      while (!stop.load(std::memory_order_acquire)) {
        for (QueryId q : qids) {
          if (m.Scan(engine, q) < 0) errors.fetch_add(1);
        }
        rounds.fetch_add(1);
      }
      // Quiesced: the applier has finished.
      for (QueryId q : qids) final_scans[c].push_back(m.Scan(engine, q));
    });
  }
  // Every apply lands while the checkers scan: before it, each has had
  // about one more round.
  auto await_rounds = [&]() {
    const long target = rounds.load() + kCheckers;
    while (rounds.load() < target) std::this_thread::yield();
  };
  // Sellers first (active-domain growth, no tag: the negative stamps
  // move and are recomputed), then tags (the memo sets), then sellers.
  auto apply = [&](AccessMethodId method, RelationId rel, int i, Value out) {
    await_rounds();
    if (!m.Apply(engine, method, rel, i, out).ok()) errors.fetch_add(1);
  };
  for (int i = 0; i < kItems; ++i) {
    apply(m.m_listing, m.listing, i, m.sellers[i]);
  }
  for (int i = 0; i < kItems; ++i) apply(m.m_label, m.label, i, m.tags[i]);
  for (int i = 0; i < kItems; ++i) {
    for (int j = 1; j < 3; ++j) {
      apply(m.m_listing, m.listing, i, m.sellers[j * kItems + i]);
    }
  }
  await_rounds();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : checkers) t.join();
  ASSERT_EQ(errors.load(), 0);

  // A sequential recheck on a fresh engine (its memo unset) over the
  // final configuration.
  RelevanceEngine fresh(*m.schema, m.acs, engine.SnapshotConfig(),
                        Marketplace::Options());
  std::vector<int> sequential;
  for (const UnionQuery& q : m.queries) {
    sequential.push_back(m.Scan(fresh, *fresh.RegisterQuery(q)));
  }
  for (int c = 0; c < kCheckers; ++c) {
    EXPECT_EQ(final_scans[c], sequential) << "checker " << c;
  }
  // Tags arrived: every query is achievable, and a listing access is
  // relevant again.
  for (int index : sequential) EXPECT_EQ(index, 0);
  EXPECT_GT(engine.stats().achievable_reuse, 0u);
}

// Applies that grow the active domain are not starved by checks. Three
// threads loop LTR FirstRelevant scans over the marketplace without
// yielding, so some check scope nearly always holds adom_mu_ shared; they
// stop only once an applier has landed 24 applies, each adding a new
// seller to the active domain. glibc's rwlock prefers readers, so without
// the growth gate in CheckLocks the applier waits until all three happen
// to be between scans at once — over 10 s under ThreadSanitizer.
// Load-bearing assertion: the applies finish within a wall-clock bound
// (the checkers give up at twice the bound, so a starved run fails
// rather than hangs).
TEST(EngineConcurrencyTest, GrowthAppliesAreNotStarvedByBackToBackChecks) {
  constexpr int kApplies = 24;
  constexpr auto kBound = std::chrono::seconds(5);
  const Marketplace m(kApplies);
  RelevanceEngine engine(*m.schema, m.acs, m.conf, Marketplace::Options());
  std::vector<QueryId> qids;
  for (const UnionQuery& q : m.queries) {
    qids.push_back(*engine.RegisterQuery(q));
  }

  constexpr int kCheckers = 3;
  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> applied{false};
  std::atomic<int> started{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> checkers;
  for (int c = 0; c < kCheckers; ++c) {
    checkers.emplace_back([&]() {
      started.fetch_add(1);
      while (!applied.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() - start < 2 * kBound) {
        for (QueryId q : qids) {
          if (m.Scan(engine, q) < 0) errors.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < kCheckers) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < kApplies; ++k) {
    const int i = k % Marketplace::kItems;
    if (!m.Apply(engine, m.m_listing, m.listing, i, m.sellers[k]).ok()) {
      errors.fetch_add(1);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  applied.store(true, std::memory_order_release);
  for (std::thread& t : checkers) t.join();
  ASSERT_EQ(errors.load(), 0);
  EXPECT_LT(elapsed, kBound)
      << kApplies << " growing applies took "
      << std::chrono::duration<double>(elapsed).count() << " s";
  EXPECT_EQ(engine.stats().adom_advances, static_cast<uint64_t>(kApplies));
}

}  // namespace
}  // namespace rar
