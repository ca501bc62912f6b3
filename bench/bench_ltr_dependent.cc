// T1-LTR-dep-CQ: long-term relevance with dependent accesses, Boolean
// access (NEXPTIME-complete), via the Prop 3.5 subset algorithm with the
// containment oracle.
//
// Sweeps: (a) witness-chain length (oracle work grows with the production
// chain), (b) number of access-compatible subgoals (2^k oracle calls).
#include <benchmark/benchmark.h>

#include "relevance/ltr_dependent.h"
#include "workload/generators.h"

namespace {

void BM_LtrDependent_ChainLength(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  rar::ChainFamily family = rar::MakeChainFamily(len);
  // A Boolean access on R: does the chain edge (c0, c1) exist?
  rar::AccessMethodSet acs = family.scenario.acs;
  rar::AccessMethodId r_bool =
      *acs.Add("r_bool", 0, {0, 1}, /*dependent=*/true);
  rar::Access probe{r_bool,
                    {family.scenario.schema->InternConstant("c0"),
                     family.scenario.schema->InternConstant("c1")}};
  rar::ContainmentOptions opts;
  opts.max_aux_facts = len + 2;
  for (auto _ : state) {
    auto ltr = rar::IsLongTermRelevantDependentCQ(
        family.scenario.conf, acs, probe, family.contained.disjuncts[0],
        opts);
    benchmark::DoNotOptimize(ltr.ok());
  }
  state.SetLabel("chain length " + std::to_string(len));
}
BENCHMARK(BM_LtrDependent_ChainLength)->DenseRange(1, 6);

void BM_LtrDependent_CompatibleSubgoals(benchmark::State& state) {
  // Query with k atoms over the accessed relation sharing the binding:
  // the Prop 3.5 algorithm enumerates 2^k - 1 guesses.
  const int k = static_cast<int>(state.range(0));
  rar::ChainFamily family = rar::MakeChainFamily(1);
  const rar::Schema& schema = *family.scenario.schema;
  rar::AccessMethodSet acs = family.scenario.acs;
  rar::AccessMethodId r_bool =
      *acs.Add("r_bool", 0, {0, 1}, /*dependent=*/true);
  rar::Value c0 = schema.InternConstant("c0");
  rar::Value c1 = schema.InternConstant("c1");

  rar::ConjunctiveQuery q;
  rar::DomainId d = 0;
  for (int i = 0; i < k; ++i) {
    rar::VarId v = q.AddVar("V" + std::to_string(i), d);
    // R(c0, Vi): compatible with the binding (c0, c1) on the constant.
    q.atoms.push_back(
        rar::Atom{0, {rar::Term::MakeConst(c0), rar::Term::MakeVar(v)}});
  }
  (void)q.Validate(schema);
  rar::Access probe{r_bool, {c0, c1}};
  rar::ContainmentOptions opts;
  opts.max_aux_facts = 3;
  for (auto _ : state) {
    auto ltr = rar::IsLongTermRelevantDependentCQ(family.scenario.conf, acs,
                                                  probe, q, opts);
    benchmark::DoNotOptimize(ltr.ok());
  }
  state.SetLabel(std::to_string(k) + " compatible subgoals (2^k guesses)");
}
BENCHMARK(BM_LtrDependent_CompatibleSubgoals)->DenseRange(1, 6);

void BM_LtrDependent_GeneralAccessExtension(benchmark::State& state) {
  // The non-Boolean extension (truncation cut + achievability): chain
  // length sweep.
  const int len = static_cast<int>(state.range(0));
  rar::ChainFamily family = rar::MakeChainFamily(len);
  rar::Access probe{0, {family.scenario.schema->InternConstant("c1")}};
  rar::ContainmentOptions opts;
  opts.max_aux_facts = len + 2;
  for (auto _ : state) {
    auto ltr = rar::IsLongTermRelevantDependentGeneral(
        family.scenario.conf, family.scenario.acs, probe, family.contained,
        opts);
    benchmark::DoNotOptimize(ltr.ok());
  }
  state.SetLabel("general access, chain " + std::to_string(len));
}
BENCHMARK(BM_LtrDependent_GeneralAccessExtension)->DenseRange(1, 6);

void BM_LtrDependent_GrowingAdom(benchmark::State& state) {
  // The general-access extension at chain length 3 under a fixed query,
  // with the active domain padded by state.range(0) values of a domain no
  // method or query variable reads. The witness search's own work is the
  // same at every size, so growth with the padding is the cost of reading
  // the active domain at each search node.
  const int padding = static_cast<int>(state.range(0));
  rar::ChainFamily family = rar::MakeChainFamily(3);
  rar::Schema& schema = *family.scenario.schema;
  const rar::DomainId pad = schema.AddDomain("Pad");
  for (int i = 0; i < padding; ++i) {
    family.scenario.conf.AddSeedConstant(
        schema.InternConstant("p" + std::to_string(i)), pad);
  }
  rar::Access probe{0, {schema.InternConstant("c1")}};
  rar::ContainmentOptions opts;
  opts.max_aux_facts = 5;
  // Verdict only, as on the engine's check path (building the witness
  // materializes the configuration once per call).
  opts.build_witness = false;
  for (auto _ : state) {
    auto ltr = rar::IsLongTermRelevantDependentGeneral(
        family.scenario.conf, family.scenario.acs, probe, family.contained,
        opts);
    benchmark::DoNotOptimize(ltr.ok());
  }
  state.SetLabel("|Adom| = " +
                 std::to_string(family.scenario.conf.adom_version()));
}
BENCHMARK(BM_LtrDependent_GrowingAdom)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
