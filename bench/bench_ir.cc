// T1-IR: immediate relevance, combined complexity (DP-complete).
//
// Families: k-clique patterns over random graphs (hard homomorphism
// instances — the NP part of the DP check), and Prop 4.1 DP-hardness
// instances built from clique query/instance pairs. Growth with the clique
// size k should be super-polynomial (the paper's DP lower bound), while
// growth with the configuration alone is polynomial (see
// bench_data_complexity).
#include <benchmark/benchmark.h>

#include "hardness/encode_dp.h"
#include "relevance/immediate.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace {

void BM_IR_CliqueQuery(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  rar::Rng rng(1234);
  rar::CliqueFamily family = rar::MakeCliqueFamily(&rng, k, 12, 0.4);
  for (auto _ : state) {
    bool ir = rar::IsImmediatelyRelevant(family.scenario.conf,
                                         family.scenario.acs, family.probe,
                                         family.query);
    benchmark::DoNotOptimize(ir);
  }
  state.SetLabel("clique size " + std::to_string(k));
}
BENCHMARK(BM_IR_CliqueQuery)->DenseRange(2, 6);

void BM_IR_DpEncoding(benchmark::State& state) {
  // DP coding of two clique problems of growing size.
  const int k = static_cast<int>(state.range(0));
  rar::Rng rng(99);
  rar::Schema base;
  rar::DomainId d = base.AddDomain("D");
  rar::RelationId e1 =
      *base.AddRelation("E1", std::vector<rar::DomainId>{d, d});
  rar::RelationId e2 =
      *base.AddRelation("E2", std::vector<rar::DomainId>{d, d});

  auto make_clique = [&](rar::RelationId rel, int size) {
    rar::ConjunctiveQuery q;
    std::vector<rar::VarId> vs;
    for (int i = 0; i < size; ++i) {
      vs.push_back(q.AddVar("V" + std::to_string(i), d));
    }
    for (int i = 0; i < size; ++i) {
      for (int j = 0; j < size; ++j) {
        if (i != j) {
          q.atoms.push_back(rar::Atom{
              rel, {rar::Term::MakeVar(vs[i]), rar::Term::MakeVar(vs[j])}});
        }
      }
    }
    (void)q.Validate(base);
    return q;
  };
  auto make_graph = [&](rar::RelationId rel, int nodes, double p) {
    std::vector<rar::Fact> facts;
    std::vector<rar::Value> vals;
    for (int i = 0; i < nodes; ++i) {
      vals.push_back(base.InternConstant("g" + std::to_string(rel) + "_" +
                                         std::to_string(i)));
    }
    for (int i = 0; i < nodes; ++i) {
      for (int j = 0; j < nodes; ++j) {
        if (i != j && rng.Chance(p)) {
          facts.push_back(rar::Fact(rel, {vals[i], vals[j]}));
        }
      }
    }
    return facts;
  };

  rar::ConjunctiveQuery q1 = make_clique(e1, k);
  rar::ConjunctiveQuery q2 = make_clique(e2, k);
  std::vector<rar::Fact> i1 = make_graph(e1, 8, 0.3);
  std::vector<rar::Fact> i2 = make_graph(e2, 8, 0.8);
  auto enc = rar::EncodeDpHardness(base, q1, i1, q2, i2);
  if (!enc.ok()) {
    state.SkipWithError(enc.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    bool ir = rar::IsImmediatelyRelevant(enc->conf, enc->acs, enc->access,
                                         enc->query);
    benchmark::DoNotOptimize(ir);
  }
  state.SetLabel("DP coding, clique size " + std::to_string(k));
}
BENCHMARK(BM_IR_DpEncoding)->DenseRange(2, 5);

void BM_IR_HeadBoundBindingQuery(benchmark::State& state) {
  // The stream registry's binding-query shape: Q(X) :- Listing(X, S),
  // Vetted(S) with the head X substituted by one item, probed with the
  // Boolean vetted access of one of that item's sellers (relevant: the
  // access witnesses Vetted(S)). |Conf| = state.range(0) Listing facts,
  // two sellers per item; no Vetted facts, so the query is not certain.
  // The bound head constant narrows Listing to the item's two facts, so
  // the cost should stay flat as |Conf| grows.
  const int num_facts = static_cast<int>(state.range(0));
  rar::Schema schema;
  const rar::DomainId item = schema.AddDomain("Item");
  const rar::DomainId seller = schema.AddDomain("Seller");
  const rar::RelationId listing =
      *schema.AddRelation("Listing", {{"item", item}, {"seller", seller}});
  const rar::RelationId vetted =
      *schema.AddRelation("Vetted", {{"seller", seller}});
  rar::AccessMethodSet acs(&schema);
  const rar::AccessMethodId vetted_check =
      *acs.Add("vetted_check", vetted, {0}, /*dependent=*/true);
  std::vector<rar::Value> sellers;
  for (int i = 0; i < 50; ++i) {
    sellers.push_back(schema.InternConstant("s" + std::to_string(i)));
  }
  rar::Configuration conf(&schema);
  std::vector<rar::Value> items;
  for (int i = 0; i < num_facts / 2; ++i) {
    items.push_back(schema.InternConstant("i" + std::to_string(i)));
    conf.AddFact(rar::Fact(listing, {items.back(), sellers[i % 50]}));
    conf.AddFact(rar::Fact(listing, {items.back(), sellers[(i * 7 + 1) % 50]}));
  }
  const int k = num_facts / 4;  // an item in the middle of the store
  rar::ConjunctiveQuery q;
  const rar::VarId s = q.AddVar("S", seller);
  q.atoms.push_back(rar::Atom{
      listing, {rar::Term::MakeConst(items[k]), rar::Term::MakeVar(s)}});
  q.atoms.push_back(rar::Atom{vetted, {rar::Term::MakeVar(s)}});
  (void)q.Validate(schema);
  rar::UnionQuery binding_query;
  binding_query.disjuncts.push_back(q);
  const rar::Access probe{vetted_check, {sellers[(k * 7 + 1) % 50]}};
  for (auto _ : state) {
    bool ir = rar::IsImmediatelyRelevant(conf, acs, probe, binding_query);
    benchmark::DoNotOptimize(ir);
  }
  state.SetLabel("|Conf| = " + std::to_string(conf.NumFacts()));
}
BENCHMARK(BM_IR_HeadBoundBindingQuery)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
