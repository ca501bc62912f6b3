// Property-based tests (parameterized over deterministic seeds): random
// scenarios are generated and the engines are checked against brute-force
// references and against each other's structural invariants.
#include <gtest/gtest.h>

#include "containment/access_containment.h"
#include "engine/engine.h"
#include "query/containment_classic.h"
#include "query/eval.h"
#include "reference/brute_force.h"
#include "relevance/head_instantiator.h"
#include "relevance/relevance.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace rar {
namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

// --- IR against the raw semantics, random dependent scenarios. ---
TEST_P(PropertyTest, IRMatchesBruteForceOnRandomScenarios) {
  Rng rng(GetParam() * 7919 + 1);
  RandomScenarioOptions opts;
  opts.num_relations = 3;
  opts.num_constants = 3;
  opts.num_facts = 4;
  Scenario s = RandomScenario(&rng, opts);

  for (int trial = 0; trial < 6; ++trial) {
    ConjunctiveQuery cq = RandomQuery(&rng, s, 2, 2, 0.25);
    if (!cq.Validate(*s.schema).ok()) continue;
    UnionQuery q;
    q.disjuncts.push_back(cq);
    Access access;
    if (!RandomAccess(&rng, s, &access)) continue;
    bool engine = IsImmediatelyRelevant(s.conf, s.acs, access, q);
    bool brute = BruteForceIR(s.conf, s.acs, access, q);
    EXPECT_EQ(engine, brute)
        << "seed " << GetParam() << " trial " << trial << " query "
        << cq.ToString(*s.schema);
  }
}

// --- IR on configurations where the (position, value) index decides. ---
// 24 facts per relation over 10 constants (values repeat), so candidate
// narrowing on a bound position skips most facts: an index lookup on the
// wrong position, or a binding not undone on backtrack, changes verdicts
// here where a 4-fact scenario cannot tell. Three query shapes per access:
//  (a) random CQs — repeated variables, self-joins, constants in atoms;
//  (b) binding queries: a random unary-head CQ instantiated at an
//      active-domain value through HeadInstantiator, so the head constant
//      is bound from the first atom on (the stream registry's Q_b);
//  (c) two atoms of the accessed relation carrying the binding at the
//      input positions, so the access can witness both, joined to a
//      random third atom.
// Each (query, access) pair is decided three ways: the one-shot decider,
// the engine (index-driven search behind its own certainty and
// well-formedness gates), and the brute-force reference.
Scenario DenseScenario(Rng* rng) {
  Scenario s;
  s.schema = std::make_shared<Schema>();
  const DomainId d = s.schema->AddDomain("D");
  s.acs = AccessMethodSet(s.schema.get());
  for (int arity : {2, 2, 3}) {
    const RelationId rel = *s.schema->AddRelation(
        "R" + std::to_string(s.schema->num_relations()),
        std::vector<DomainId>(arity, d));
    std::vector<int> inputs;
    for (int pos = 0; pos < arity; ++pos) {
      if (rng->Chance(0.5)) inputs.push_back(pos);
    }
    // A free ternary access would make the brute-force response universe
    // (every ternary fact over the constants) too large to enumerate.
    if (arity == 3 && inputs.empty()) {
      inputs.push_back(static_cast<int>(rng->Below(3)));
    }
    (void)*s.acs.Add("m" + std::to_string(rel), rel, inputs,
                     /*dependent=*/true);
  }
  std::vector<Value> constants;
  for (int i = 0; i < 10; ++i) {
    constants.push_back(s.schema->InternConstant("k" + std::to_string(i)));
  }
  s.conf = Configuration(s.schema.get());
  for (RelationId rel = 0; rel < s.schema->num_relations(); ++rel) {
    while (s.conf.NumFactsOf(rel) < 24) {
      Fact f;
      f.relation = rel;
      for (int pos = 0; pos < s.schema->relation(rel).arity(); ++pos) {
        f.values.push_back(rng->Pick(constants));
      }
      s.conf.AddFact(f);
    }
  }
  return s;
}

TEST_P(PropertyTest, IndexedIRMatchesBruteForceOnDenseScenarios) {
  Rng rng(GetParam() * 6151 + 17);
  Scenario s = DenseScenario(&rng);
  const Schema& schema = *s.schema;
  const DomainId d = 0;
  const std::vector<Value> adom = s.conf.AdomOfDomain(d).ToVector();

  RelevanceEngine engine(schema, s.acs, s.conf);
  int compared = 0;
  auto compare = [&](UnionQuery q, const Access& access, const char* shape) {
    if (q.disjuncts.empty()) return;
    for (ConjunctiveQuery& cq : q.disjuncts) {
      if (!cq.Validate(schema).ok()) return;
    }
    const bool brute = BruteForceIR(s.conf, s.acs, access, q);
    EXPECT_EQ(IsImmediatelyRelevant(s.conf, s.acs, access, q), brute)
        << "seed " << GetParam() << " shape " << shape << " query "
        << q.disjuncts[0].ToString(schema) << " access "
        << access.ToString(schema, s.acs);
    Result<QueryId> qid = engine.RegisterQuery(q);
    ASSERT_TRUE(qid.ok()) << qid.status().ToString();
    EXPECT_EQ(engine.CheckImmediate(*qid, access).relevant, brute)
        << "engine, seed " << GetParam() << " shape " << shape << " query "
        << q.disjuncts[0].ToString(schema) << " access "
        << access.ToString(schema, s.acs);
    ++compared;
  };

  // An access that can witness a random atom of `cq`: the atom's method,
  // bound to the atom's constants where it has them and to random
  // active-domain values elsewhere.
  auto access_for = [&](const ConjunctiveQuery& cq) {
    const Atom& atom = rng.Pick(cq.atoms);
    Access access;
    access.method = s.acs.MethodsOf(atom.relation)[0];
    for (int pos : s.acs.method(access.method).input_positions) {
      const Term& t = atom.terms[pos];
      access.binding.push_back(t.is_const() ? t.constant : rng.Pick(adom));
    }
    return access;
  };

  for (int trial = 0; trial < 8; ++trial) {
    Access access;
    if (!RandomAccess(&rng, s, &access)) continue;

    // (a) random CQ.
    ConjunctiveQuery cq =
        RandomQuery(&rng, s, static_cast<int>(rng.Range(2, 3)), 3, 0.25);
    UnionQuery plain;
    plain.disjuncts.push_back(cq);
    compare(plain, access_for(cq), "random");

    // (b) binding query: head on a variable that occurs, bound to an
    // active-domain value.
    std::vector<VarId> occurring;
    for (VarId v = 0; v < cq.num_vars(); ++v) {
      if (cq.VarOccurs(v)) occurring.push_back(v);
    }
    if (!occurring.empty()) {
      ConjunctiveQuery kary = cq;
      kary.head = {rng.Pick(occurring)};
      UnionQuery uq;
      uq.disjuncts.push_back(kary);
      HeadInstantiator inst(schema, uq);
      if (inst.status().ok()) {
        UnionQuery bound = inst.Instantiate({rng.Pick(adom)});
        if (!bound.disjuncts.empty()) {
          compare(bound, access_for(bound.disjuncts[0]), "binding");
        }
      }
    }

    // (c) two atoms the access can witness, plus a random joined atom.
    const AccessMethod& m = s.acs.method(access.method);
    const int arity = schema.relation(m.relation).arity();
    ConjunctiveQuery twin;
    std::vector<VarId> outputs;  // the twins' output variables
    auto fresh_var = [&]() {
      return twin.AddVar("T" + std::to_string(twin.num_vars()), d);
    };
    for (int copy = 0; copy < 2; ++copy) {
      Atom atom;
      atom.relation = m.relation;
      for (int pos = 0; pos < arity; ++pos) {
        int input = -1;
        for (int i = 0; i < m.num_inputs(); ++i) {
          if (m.input_positions[i] == pos) input = i;
        }
        if (input >= 0) {
          atom.terms.push_back(Term::MakeConst(access.binding[input]));
        } else {
          outputs.push_back(fresh_var());
          atom.terms.push_back(Term::MakeVar(outputs.back()));
        }
      }
      twin.atoms.push_back(std::move(atom));
    }
    const RelationId third =
        static_cast<RelationId>(rng.Below(schema.num_relations()));
    Atom join;
    join.relation = third;
    for (int pos = 0; pos < schema.relation(third).arity(); ++pos) {
      // Mostly an output variable of the twins, so the third atom joins
      // them; otherwise a fresh variable.
      join.terms.push_back(Term::MakeVar(
          !outputs.empty() && rng.Chance(0.6) ? rng.Pick(outputs)
                                              : fresh_var()));
    }
    twin.atoms.push_back(std::move(join));
    UnionQuery twins;
    twins.disjuncts.push_back(twin);
    compare(twins, access, "twin");
  }
  EXPECT_GT(compared, 8) << "too few valid (query, access) pairs";
}

// --- Independent LTR against the raw semantics. ---
TEST_P(PropertyTest, IndependentLTRMatchesBruteForce) {
  Rng rng(GetParam() * 104729 + 3);
  RandomScenarioOptions opts;
  opts.num_relations = 2;
  opts.num_constants = 2;
  opts.num_facts = 2;
  opts.independent_prob = 1.0;
  Scenario s = RandomScenario(&rng, opts);

  BruteForceOptions brute_opts;
  brute_opts.max_steps = 3;
  brute_opts.max_first_response = 2;

  for (int trial = 0; trial < 4; ++trial) {
    ConjunctiveQuery cq = RandomQuery(&rng, s, 2, 2, 0.2);
    if (!cq.Validate(*s.schema).ok()) continue;
    UnionQuery q;
    q.disjuncts.push_back(cq);
    Access access;
    if (!RandomAccess(&rng, s, &access)) continue;
    bool engine = IsLongTermRelevantIndependent(s.conf, s.acs, access, q);
    bool brute = BruteForceLTR(s.conf, s.acs, access, q, brute_opts);
    EXPECT_EQ(engine, brute)
        << "seed " << GetParam() << " trial " << trial << " query "
        << cq.ToString(*s.schema);
  }
}

// --- Containment against the raw semantics, dependent scenarios. ---
TEST_P(PropertyTest, ContainmentMatchesBruteForce) {
  Rng rng(GetParam() * 15485863 + 5);
  RandomScenarioOptions opts;
  opts.num_relations = 2;
  opts.num_constants = 2;
  opts.num_facts = 2;
  Scenario s = RandomScenario(&rng, opts);

  BruteForceOptions brute_opts;
  brute_opts.max_steps = 3;
  ContainmentOptions copts;
  copts.max_aux_facts = 3;
  ContainmentEngine engine(*s.schema, s.acs);

  for (int trial = 0; trial < 4; ++trial) {
    ConjunctiveQuery a = RandomQuery(&rng, s, 2, 2, 0.2);
    ConjunctiveQuery b = RandomQuery(&rng, s, 2, 2, 0.2);
    if (!a.Validate(*s.schema).ok() || !b.Validate(*s.schema).ok()) continue;
    UnionQuery q1, q2;
    q1.disjuncts.push_back(a);
    q2.disjuncts.push_back(b);
    auto dec = engine.Contained(q1, q2, s.conf, copts);
    ASSERT_TRUE(dec.ok());
    bool brute_not = BruteForceNotContained(s.conf, s.acs, q1, q2,
                                            brute_opts);
    EXPECT_EQ(!dec->contained, brute_not)
        << "seed " << GetParam() << " trial " << trial << "\n  q1 "
        << a.ToString(*s.schema) << "\n  q2 " << b.ToString(*s.schema);
  }
}

// --- Structural invariants. ---

TEST_P(PropertyTest, IRImpliesLTR) {
  Rng rng(GetParam() * 32452843 + 7);
  RandomScenarioOptions opts;
  opts.num_relations = 3;
  opts.num_constants = 3;
  opts.num_facts = 3;
  Scenario s = RandomScenario(&rng, opts);
  RelevanceAnalyzer analyzer(*s.schema, s.acs);

  for (int trial = 0; trial < 6; ++trial) {
    ConjunctiveQuery cq = RandomQuery(&rng, s, 2, 2, 0.25);
    if (!cq.Validate(*s.schema).ok()) continue;
    UnionQuery q;
    q.disjuncts.push_back(cq);
    Access access;
    if (!RandomAccess(&rng, s, &access)) continue;
    if (!analyzer.Immediate(s.conf, access, q)) continue;
    auto ltr = analyzer.LongTerm(s.conf, access, q);
    if (!ltr.ok()) continue;  // out-of-scope corner (uncuttable)
    EXPECT_TRUE(*ltr) << "IR access not LTR; seed " << GetParam();
  }
}

TEST_P(PropertyTest, ClassicalContainmentImpliesAccessContainment) {
  Rng rng(GetParam() * 49979687 + 11);
  RandomScenarioOptions opts;
  opts.num_relations = 2;
  opts.num_constants = 3;
  opts.num_facts = 3;
  Scenario s = RandomScenario(&rng, opts);
  ContainmentEngine engine(*s.schema, s.acs);
  ContainmentOptions copts;
  copts.max_aux_facts = 3;

  for (int trial = 0; trial < 4; ++trial) {
    ConjunctiveQuery a = RandomQuery(&rng, s, 3, 2, 0.2);
    ConjunctiveQuery b = RandomQuery(&rng, s, 2, 2, 0.2);
    if (!a.Validate(*s.schema).ok() || !b.Validate(*s.schema).ok()) continue;
    if (!ClassicallyContained(a, b, *s.schema)) continue;
    auto dec = engine.Contained(a, b, s.conf, copts);
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(dec->contained)
        << "classical but not access-contained; seed " << GetParam()
        << "\n  q1 " << a.ToString(*s.schema) << "\n  q2 "
        << b.ToString(*s.schema);
  }
}

TEST_P(PropertyTest, ContainmentReflexiveAndTransitive) {
  Rng rng(GetParam() * 86028121 + 13);
  RandomScenarioOptions opts;
  opts.num_relations = 2;
  opts.num_constants = 2;
  opts.num_facts = 2;
  Scenario s = RandomScenario(&rng, opts);
  ContainmentEngine engine(*s.schema, s.acs);
  ContainmentOptions copts;
  copts.max_aux_facts = 3;

  std::vector<ConjunctiveQuery> queries;
  for (int i = 0; i < 3; ++i) {
    ConjunctiveQuery q = RandomQuery(&rng, s, 2, 2, 0.2);
    if (q.Validate(*s.schema).ok()) queries.push_back(q);
  }
  for (const auto& q : queries) {
    auto dec = engine.Contained(q, q, s.conf, copts);
    ASSERT_TRUE(dec.ok());
    EXPECT_TRUE(dec->contained) << "reflexivity; seed " << GetParam();
  }
  // Transitivity: a ⊑ b ∧ b ⊑ c ⇒ a ⊑ c (over the same Conf).
  if (queries.size() == 3) {
    auto ab = engine.Contained(queries[0], queries[1], s.conf, copts);
    auto bc = engine.Contained(queries[1], queries[2], s.conf, copts);
    auto ac = engine.Contained(queries[0], queries[2], s.conf, copts);
    ASSERT_TRUE(ab.ok() && bc.ok() && ac.ok());
    if (ab->contained && bc->contained) {
      EXPECT_TRUE(ac->contained) << "transitivity; seed " << GetParam();
    }
  }
}

TEST_P(PropertyTest, WitnessesAlwaysReplayValid) {
  Rng rng(GetParam() * 122949823 + 17);
  RandomScenarioOptions opts;
  opts.num_relations = 2;
  opts.num_constants = 2;
  opts.num_facts = 2;
  Scenario s = RandomScenario(&rng, opts);
  ContainmentEngine engine(*s.schema, s.acs);
  ContainmentOptions copts;
  copts.max_aux_facts = 3;

  for (int trial = 0; trial < 4; ++trial) {
    ConjunctiveQuery a = RandomQuery(&rng, s, 2, 2, 0.2);
    ConjunctiveQuery b = RandomQuery(&rng, s, 2, 2, 0.2);
    if (!a.Validate(*s.schema).ok() || !b.Validate(*s.schema).ok()) continue;
    UnionQuery q1, q2;
    q1.disjuncts.push_back(a);
    q2.disjuncts.push_back(b);
    auto dec = engine.Contained(q1, q2, s.conf, copts);
    ASSERT_TRUE(dec.ok());
    if (dec->contained) continue;
    ASSERT_TRUE(dec->witness.has_value());
    AccessPath path(&s.conf, &s.acs);
    for (const AccessStep& step : dec->witness->steps) path.Append(step);
    auto replayed = path.Replay();
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_TRUE(EvalBool(q1, *replayed));
    EXPECT_FALSE(EvalBool(q2, *replayed));
  }
}

TEST_P(PropertyTest, CertainQueriesAdmitNoRelevantAccess) {
  Rng rng(GetParam() * 141650939 + 19);
  RandomScenarioOptions opts;
  opts.num_relations = 2;
  opts.num_constants = 3;
  opts.num_facts = 5;
  Scenario s = RandomScenario(&rng, opts);
  RelevanceAnalyzer analyzer(*s.schema, s.acs);

  for (int trial = 0; trial < 6; ++trial) {
    ConjunctiveQuery cq = RandomQuery(&rng, s, 1, 1, 0.3);
    if (!cq.Validate(*s.schema).ok()) continue;
    UnionQuery q;
    q.disjuncts.push_back(cq);
    if (!EvalBool(q, s.conf)) continue;  // want certain queries
    Access access;
    if (!RandomAccess(&rng, s, &access)) continue;
    EXPECT_FALSE(analyzer.Immediate(s.conf, access, q));
    auto ltr = analyzer.LongTerm(s.conf, access, q);
    if (ltr.ok()) EXPECT_FALSE(*ltr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace rar
