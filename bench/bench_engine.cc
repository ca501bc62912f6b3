// RelevanceEngine throughput: cached/incremental checks vs per-call
// decider invocation.
//
// Paired benchmarks on the clique (IR), star (independent LTR) and chain
// (dependent LTR) families measure a repeated-check workload — the shape a
// mediator produces, re-probing the candidate set as the configuration
// evolves. `*_Direct` re-runs the one-shot deciders per call; `*_Engine`
// serves the same stream through the RelevanceEngine. The engine's
// decision cache and certainty/fixpoint reuse should make the engine
// variant several times faster (the acceptance bar is ≥2×); `items_per_
// second` is checks/sec and the `hit_rate` counter reports the cache hit
// rate of the run.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "relevance/immediate.h"
#include "relevance/relevance.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace {

using rar::Access;
using rar::CheckKind;
using rar::CheckOutcome;
using rar::EngineOptions;
using rar::EngineStats;
using rar::QueryId;
using rar::RelevanceEngine;

// The repeated-check batch: every pending candidate access at the family's
// initial configuration.
std::vector<Access> CandidateBatch(const rar::Scenario& s) {
  RelevanceEngine probe(*s.schema, s.acs, s.conf);
  return probe.PendingAccesses();
}

// Checks each access of `batch` once, one engine call per access, and
// returns the number of checks.
long CheckEach(RelevanceEngine& engine, QueryId q, CheckKind kind,
               const std::vector<Access>& batch) {
  for (const Access& a : batch) {
    const CheckOutcome out = kind == CheckKind::kImmediate
                                 ? engine.CheckImmediate(q, a)
                                 : engine.CheckLongTerm(q, a);
    benchmark::DoNotOptimize(out.relevant);
  }
  return static_cast<long>(batch.size());
}

// ------------------------------------------------------------- IR, clique

void BM_RepeatedIR_Clique_Direct(benchmark::State& state) {
  rar::Rng rng(1234);
  rar::CliqueFamily family =
      rar::MakeCliqueFamily(&rng, static_cast<int>(state.range(0)), 10, 0.4);
  const rar::Scenario& s = family.scenario;
  std::vector<Access> batch = CandidateBatch(s);
  long checks = 0;
  for (auto _ : state) {
    for (const Access& a : batch) {
      bool ir = rar::IsImmediatelyRelevant(s.conf, s.acs, a, family.query);
      benchmark::DoNotOptimize(ir);
      ++checks;
    }
  }
  state.SetItemsProcessed(checks);
  state.SetLabel("per-call decider, batch of " +
                 std::to_string(batch.size()));
}
BENCHMARK(BM_RepeatedIR_Clique_Direct)->DenseRange(3, 4);

void BM_RepeatedIR_Clique_Engine(benchmark::State& state) {
  rar::Rng rng(1234);
  rar::CliqueFamily family =
      rar::MakeCliqueFamily(&rng, static_cast<int>(state.range(0)), 10, 0.4);
  const rar::Scenario& s = family.scenario;
  RelevanceEngine engine(*s.schema, s.acs, s.conf);
  QueryId q = *engine.RegisterQuery(family.query);
  std::vector<Access> batch = engine.PendingAccesses();
  long checks = 0;
  for (auto _ : state) {
    checks += CheckEach(engine, q, CheckKind::kImmediate, batch);
  }
  EngineStats stats = engine.stats();
  state.SetItemsProcessed(checks);
  state.counters["hit_rate"] = stats.cache_hit_rate();
  state.SetLabel("engine, batch of " + std::to_string(batch.size()));
}
BENCHMARK(BM_RepeatedIR_Clique_Engine)->DenseRange(3, 4);

// -------------------------------------------- LTR, star (independent ACS)

void BM_RepeatedLTR_Star_Direct(benchmark::State& state) {
  rar::StarFamily family =
      rar::MakeStarFamily(static_cast<int>(state.range(0)), 6);
  const rar::Scenario& s = family.scenario;
  rar::RelevanceAnalyzer analyzer(*s.schema, s.acs);
  std::vector<Access> batch = CandidateBatch(s);
  long checks = 0;
  for (auto _ : state) {
    for (const Access& a : batch) {
      auto r = analyzer.LongTerm(s.conf, a, family.query);
      benchmark::DoNotOptimize(r.ok());
      ++checks;
    }
  }
  state.SetItemsProcessed(checks);
  state.SetLabel("per-call decider, batch of " +
                 std::to_string(batch.size()));
}
BENCHMARK(BM_RepeatedLTR_Star_Direct)->DenseRange(3, 5);

void BM_RepeatedLTR_Star_Engine(benchmark::State& state) {
  rar::StarFamily family =
      rar::MakeStarFamily(static_cast<int>(state.range(0)), 6);
  const rar::Scenario& s = family.scenario;
  RelevanceEngine engine(*s.schema, s.acs, s.conf);
  QueryId q = *engine.RegisterQuery(family.query);
  std::vector<Access> batch = engine.PendingAccesses();
  long checks = 0;
  for (auto _ : state) {
    checks += CheckEach(engine, q, CheckKind::kLongTerm, batch);
  }
  EngineStats stats = engine.stats();
  state.SetItemsProcessed(checks);
  state.counters["hit_rate"] = stats.cache_hit_rate();
  state.SetLabel("engine, batch of " + std::to_string(batch.size()));
}
BENCHMARK(BM_RepeatedLTR_Star_Engine)->DenseRange(3, 5);

// --------------------------------------------- LTR, chain (dependent ACS)

void BM_RepeatedLTR_Chain_Direct(benchmark::State& state) {
  rar::ChainFamily family =
      rar::MakeChainFamily(static_cast<int>(state.range(0)));
  const rar::Scenario& s = family.scenario;
  rar::RelevanceAnalyzer analyzer(*s.schema, s.acs);
  std::vector<Access> batch = CandidateBatch(s);
  long checks = 0;
  for (auto _ : state) {
    for (const Access& a : batch) {
      auto r = analyzer.LongTerm(s.conf, a, family.contained);
      benchmark::DoNotOptimize(r.ok());
      ++checks;
    }
  }
  state.SetItemsProcessed(checks);
  state.SetLabel("per-call decider, batch of " +
                 std::to_string(batch.size()));
}
BENCHMARK(BM_RepeatedLTR_Chain_Direct)->DenseRange(2, 4);

void BM_RepeatedLTR_Chain_Engine(benchmark::State& state) {
  rar::ChainFamily family =
      rar::MakeChainFamily(static_cast<int>(state.range(0)));
  const rar::Scenario& s = family.scenario;
  RelevanceEngine engine(*s.schema, s.acs, s.conf);
  QueryId q = *engine.RegisterQuery(family.contained);
  std::vector<Access> batch = engine.PendingAccesses();
  long checks = 0;
  for (auto _ : state) {
    checks += CheckEach(engine, q, CheckKind::kLongTerm, batch);
  }
  EngineStats stats = engine.stats();
  state.SetItemsProcessed(checks);
  state.counters["hit_rate"] = stats.cache_hit_rate();
  state.SetLabel("engine, batch of " + std::to_string(batch.size()));
}
BENCHMARK(BM_RepeatedLTR_Chain_Engine)->DenseRange(2, 4);

// ------------------------------- mixed-relation growth (footprint payoff)

// The sharded-invalidation headline: a query over one relation group is
// re-probed while *other* groups grow between rounds. Footprint-stamped
// entries survive every disjoint growth (hit rate stays high); the
// global-epoch baseline loses the whole cache on each response.
void RunMixedGrowth(benchmark::State& state, bool footprint_invalidation) {
  rar::MultiRelationFamily family =
      rar::MakeMultiRelationFamily(/*groups=*/4, /*values_per_group=*/5);
  const rar::Scenario& s = family.scenario;
  long checks = 0;
  rar::EngineStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    EngineOptions opts;
    opts.footprint_invalidation = footprint_invalidation;
    RelevanceEngine engine(*s.schema, s.acs, s.conf, opts);
    QueryId q = *engine.RegisterQuery(family.queries[0]);
    // Growth script: every hidden fact of groups 1..3, none in q's
    // footprint, all over seeded values (Adom stays fixed).
    std::vector<std::pair<Access, std::vector<rar::Fact>>> growth;
    for (size_t g = 1; g < family.group_relations.size(); ++g) {
      for (rar::RelationId rel : family.group_relations[g]) {
        rar::AccessMethodId m = s.acs.MethodsOf(rel)[0];
        for (const rar::Fact& f : family.hidden.FactsOf(rel)) {
          growth.push_back({Access{m, {f.values[0]}}, {f}});
        }
      }
    }
    std::vector<Access> batch = engine.PendingAccesses();
    state.ResumeTiming();

    size_t gi = 0;
    for (int round = 0; round < 8; ++round) {
      checks += CheckEach(engine, q, CheckKind::kLongTerm, batch);
      if (gi < growth.size()) {
        (void)engine.ApplyResponse(growth[gi].first, growth[gi].second);
        ++gi;
      }
    }
    stats = engine.stats();
  }
  state.SetItemsProcessed(checks);
  state.counters["hit_rate"] = stats.cache_hit_rate();
  state.counters["cross_epoch_hits"] =
      static_cast<double>(stats.cross_epoch_hits);
  state.counters["stale"] = static_cast<double>(stats.stale_invalidations);
}

void BM_MixedGrowth_FootprintStamps(benchmark::State& state) {
  RunMixedGrowth(state, /*footprint_invalidation=*/true);
}
BENCHMARK(BM_MixedGrowth_FootprintStamps);

void BM_MixedGrowth_GlobalEpoch(benchmark::State& state) {
  RunMixedGrowth(state, /*footprint_invalidation=*/false);
}
BENCHMARK(BM_MixedGrowth_GlobalEpoch);

// --------------------------------------- evolving stream (growth + checks)

// The mediator shape: between check batches the configuration grows, so
// epoch entries are invalidated but certainty memoization, the incremental
// frontier, and sticky entries keep paying.
void BM_Stream_Clique_Engine(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rar::Rng rng(7);
    rar::CliqueFamily family = rar::MakeCliqueFamily(&rng, 3, 10, 0.4);
    const rar::Scenario& s = family.scenario;
    // Start from the node set only; the stream reveals edges one by one.
    rar::Configuration initial(s.schema.get());
    for (const rar::TypedValue& tv : s.conf.AdomEntries()) {
      initial.AddSeedConstant(tv.value, tv.domain);
    }
    RelevanceEngine engine(*s.schema, s.acs, initial);
    QueryId q = *engine.RegisterQuery(family.query);
    std::vector<rar::Fact> edges = s.conf.AllFacts();
    state.ResumeTiming();

    long checks = 0;
    for (int round = 0; round < 6 && !edges.empty(); ++round) {
      std::vector<Access> batch = engine.CandidateAccesses(q);
      if (batch.size() > 32) batch.resize(32);
      checks += CheckEach(engine, q, CheckKind::kImmediate, batch);
      rar::Fact next = edges.back();
      edges.pop_back();
      Access free_probe;
      free_probe.method = family.probe.method;
      free_probe.binding = {next.values[0]};
      (void)engine.ApplyResponse(free_probe, {next});
    }
    benchmark::DoNotOptimize(checks);
  }
}
BENCHMARK(BM_Stream_Clique_Engine);

// ------------------------------------ binding-query scans (the check core)

// One IR FirstRelevant scan per iteration over `n` accesses of a binding
// query — the stream registry's per-binding recheck. Q :- R(k, Y),
// S(Y, Z, W) with no R(k, _) fact: every access through R's method
// (binding != k) is well-formed and not relevant, so each scan checks all
// `n`. ScanAllHit re-scans a warm cache (every probe a hit). ScanStale
// first lands one new S fact over existing values (outside the timed
// region; (n+1)^3 distinct facts, so every iteration's is new), so every
// probe finds its entry stale and re-decides it. `per_check` is time per
// checked access.
struct BindingScan {
  explicit BindingScan(int n) {
    schema = std::make_shared<rar::Schema>();
    const rar::DomainId d = schema->AddDomain("D");
    r = *schema->AddRelation("R", {{"a", d}, {"b", d}});
    s = *schema->AddRelation("S", {{"a", d}, {"b", d}, {"c", d}});
    const rar::RelationId t = *schema->AddRelation("T", {{"a", d}});
    acs = std::make_unique<rar::AccessMethodSet>(schema.get());
    const rar::AccessMethodId mr = *acs->Add("r_by_a", r, {0}, true);
    ms = *acs->Add("s_by_a", s, {0}, true);
    rar::Configuration conf(schema.get());
    for (int i = 0; i <= n; ++i) {
      values.push_back(schema->InternConstant("v" + std::to_string(i)));
      conf.AddFact(rar::Fact(t, {values.back()}));
    }
    rar::ConjunctiveQuery cq;
    const rar::VarId y = cq.AddVar("Y", d);
    const rar::VarId z = cq.AddVar("Z", d);
    const rar::VarId w = cq.AddVar("W", d);
    cq.atoms.push_back(rar::Atom{r, {rar::Term::MakeConst(values[0]),
                                     rar::Term::MakeVar(y)}});
    cq.atoms.push_back(rar::Atom{s, {rar::Term::MakeVar(y),
                                     rar::Term::MakeVar(z),
                                     rar::Term::MakeVar(w)}});
    rar::UnionQuery q;
    q.disjuncts.push_back(std::move(cq));
    engine =
        std::make_unique<RelevanceEngine>(*schema, *acs, std::move(conf));
    qid = *engine->RegisterQuery(q);
    for (int i = 1; i <= n; ++i) accesses.push_back(Access{mr, {values[i]}});
  }

  int Scan() {
    return engine
        ->FirstRelevant(qid, CheckKind::kImmediate, accesses.data(),
                        accesses.size(),
                        [](rar::AccessMethodId) { return true; }, true)
        .index;
  }

  // Lands the next S(v_i, v_j, v_k) (existing values: the active domain
  // stays).
  void GrowFootprint() {
    const size_t n = values.size();
    const rar::Value a = values[next % n];
    const rar::Value b = values[(next / n) % n];
    const rar::Value c = values[(next / n / n) % n];
    ++next;
    (void)engine->ApplyResponse(Access{ms, {a}}, {rar::Fact(s, {a, b, c})});
  }

  std::shared_ptr<rar::Schema> schema;
  std::unique_ptr<rar::AccessMethodSet> acs;
  rar::RelationId r = 0, s = 0;
  rar::AccessMethodId ms = 0;
  std::vector<rar::Value> values;
  std::unique_ptr<RelevanceEngine> engine;
  QueryId qid = 0;
  std::vector<Access> accesses;
  size_t next = 0;
};

void ReportScan(benchmark::State& state, const BindingScan& scan) {
  const double checks =
      static_cast<double>(state.iterations()) * scan.accesses.size();
  state.SetItemsProcessed(static_cast<int64_t>(checks));
  state.counters["per_check"] = benchmark::Counter(
      checks, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["hit_rate"] = scan.engine->stats().cache_hit_rate();
}

void BM_Engine_ScanAllHit(benchmark::State& state) {
  BindingScan scan(static_cast<int>(state.range(0)));
  scan.Scan();  // decide and cache every verdict
  for (auto _ : state) benchmark::DoNotOptimize(scan.Scan());
  ReportScan(state, scan);
}
BENCHMARK(BM_Engine_ScanAllHit)->Arg(64)->Arg(512);

void BM_Engine_ScanStale(benchmark::State& state) {
  BindingScan scan(static_cast<int>(state.range(0)));
  scan.Scan();
  for (auto _ : state) {
    state.PauseTiming();
    scan.GrowFootprint();
    state.ResumeTiming();
    benchmark::DoNotOptimize(scan.Scan());
  }
  ReportScan(state, scan);
}
BENCHMARK(BM_Engine_ScanStale)->Arg(64)->Arg(512);

// One stale LTR check of an access with outputs per iteration — the
// truncation-cut route of the dependent LTR decider. Q :- R(k, Y), S(Y)
// under dependent methods: r_by_a(v) for v != k is long-term relevant
// (R(k, y) then S(y) is reachable, and R's output domain feeds both
// methods, so the truncation can be cut). Before each iteration, outside
// the timed region, U — a relation outside the query — lands a value new
// to the active domain: the check's cached verdict goes stale (its stamp
// carries the Adom version) while the query's relations, and so its
// certainty, stay. Once the engine's achievability memo holds, the check
// reads the cut off the view with no containment search; `memo_share` is
// the share of timed checks it answered.
struct TruncationCutCheck {
  TruncationCutCheck() {
    schema = std::make_shared<rar::Schema>();
    const rar::DomainId d = schema->AddDomain("D");
    const rar::DomainId e = schema->AddDomain("E");
    const rar::RelationId r = *schema->AddRelation("R", {{"a", d}, {"b", d}});
    const rar::RelationId s = *schema->AddRelation("S", {{"a", d}});
    const rar::RelationId t = *schema->AddRelation("T", {{"a", d}});
    u = *schema->AddRelation("U", {{"a", e}});
    acs = std::make_unique<rar::AccessMethodSet>(schema.get());
    const rar::AccessMethodId mr = *acs->Add("r_by_a", r, {0}, true);
    (void)*acs->Add("s_check", s, {0}, true);
    mu = *acs->Add("u_free", u, {}, true);
    rar::Configuration conf(schema.get());
    const rar::Value k = schema->InternConstant("k");
    const rar::Value v = schema->InternConstant("v");
    conf.AddFact(rar::Fact(t, {k}));
    conf.AddFact(rar::Fact(t, {v}));
    rar::ConjunctiveQuery cq;
    const rar::VarId y = cq.AddVar("Y", d);
    cq.atoms.push_back(
        rar::Atom{r, {rar::Term::MakeConst(k), rar::Term::MakeVar(y)}});
    cq.atoms.push_back(rar::Atom{s, {rar::Term::MakeVar(y)}});
    rar::UnionQuery q;
    q.disjuncts.push_back(std::move(cq));
    engine =
        std::make_unique<RelevanceEngine>(*schema, *acs, std::move(conf));
    qid = *engine->RegisterQuery(q);
    access = Access{mr, {v}};
  }

  bool Check() { return engine->CheckLongTerm(qid, access).relevant; }

  // Lands U(u_i), a value new to the active domain.
  void GrowAdom() {
    const rar::Value fresh =
        schema->InternConstant("u" + std::to_string(next++));
    (void)engine->ApplyResponse(Access{mu, {}}, {rar::Fact(u, {fresh})});
  }

  std::shared_ptr<rar::Schema> schema;
  std::unique_ptr<rar::AccessMethodSet> acs;
  rar::RelationId u = 0;
  rar::AccessMethodId mu = 0;
  std::unique_ptr<RelevanceEngine> engine;
  QueryId qid = 0;
  Access access;
  size_t next = 0;
};

void BM_Engine_LtrTruncationCutStale(benchmark::State& state) {
  TruncationCutCheck check;
  check.Check();  // decide once: the memo is set
  const EngineStats before = check.engine->stats();
  for (auto _ : state) {
    state.PauseTiming();
    check.GrowAdom();
    state.ResumeTiming();
    benchmark::DoNotOptimize(check.Check());
  }
  const EngineStats after = check.engine->stats();
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_rate"] = after.cache_hit_rate();
  state.counters["memo_share"] =
      static_cast<double>(after.achievable_reuse - before.achievable_reuse) /
      static_cast<double>(state.iterations());
}
// A fixed count: every iteration adds one active-domain value.
BENCHMARK(BM_Engine_LtrTruncationCutStale)->Iterations(20000);

}  // namespace

BENCHMARK_MAIN();
