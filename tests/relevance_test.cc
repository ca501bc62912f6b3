// Tests for the relevance deciders (Sections 2, 4, 5): paper examples,
// agreement with the brute-force semantics, reduction cross-checks.
#include <gtest/gtest.h>

#include "query/parser.h"
#include "reference/brute_force.h"
#include "relevance/criticality.h"
#include "relevance/relevance.h"

namespace rar {
namespace {

class RelevanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = schema_.AddDomain("D");
    r_ = *schema_.AddRelation("R", std::vector<DomainId>{d_, d_});
    s_ = *schema_.AddRelation("S", std::vector<DomainId>{d_});
    t_ = *schema_.AddRelation("T", std::vector<DomainId>{d_});
    conf_ = Configuration(&schema_);
  }

  UnionQuery UCQ(const std::string& text) {
    auto q = ParseUCQ(schema_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }
  ConjunctiveQuery CQ(const std::string& text) {
    auto q = ParseCQ(schema_, text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }
  Value C(const std::string& s) { return schema_.InternConstant(s); }

  Schema schema_;
  DomainId d_ = 0;
  RelationId r_ = 0, s_ = 0, t_ = 0;
  Configuration conf_{nullptr};
};

TEST_F(RelevanceTest, IRPaperExampleFromProp41) {
  // Q = ∃x∃y R(x,y) & S(x) & S(y) & T(y); access S(0)?. With R(0,1), S(1),
  // T(1) known, the access completes the query: IR.
  AccessMethodSet acs(&schema_);
  AccessMethodId s_check = *acs.Add("s_check", s_, {0}, true);
  ASSERT_TRUE(conf_.AddFactNamed("R", {"0", "1"}).ok());
  ASSERT_TRUE(conf_.AddFactNamed("S", {"1"}).ok());
  ASSERT_TRUE(conf_.AddFactNamed("T", {"1"}).ok());
  UnionQuery q = UCQ("R(X, Y) & S(X) & S(Y) & T(Y)");
  EXPECT_TRUE(
      IsImmediatelyRelevant(conf_, acs, Access{s_check, {C("0")}}, q));
  // S(2)? is useless: no R edge leaves 2.
  conf_.AddSeedConstant(C("2"), d_);
  EXPECT_FALSE(
      IsImmediatelyRelevant(conf_, acs, Access{s_check, {C("2")}}, q));
}

TEST_F(RelevanceTest, IRNeedsFreshValueReasoning) {
  // Q = R(X,Y) & S(Y): an access R(a, ?) is IR only together with S — the
  // response's fresh output cannot be in S. But if S(b) is known and the
  // response may return R(a,b), it is IR.
  AccessMethodSet acs(&schema_);
  AccessMethodId r_by0 = *acs.Add("r_by0", r_, {0}, true);
  conf_.AddSeedConstant(C("a"), d_);
  UnionQuery q = UCQ("R(X, Y) & S(Y)");
  EXPECT_FALSE(IsImmediatelyRelevant(conf_, acs, Access{r_by0, {C("a")}}, q));
  ASSERT_TRUE(conf_.AddFactNamed("S", {"b"}).ok());
  EXPECT_TRUE(IsImmediatelyRelevant(conf_, acs, Access{r_by0, {C("a")}}, q));
}

TEST_F(RelevanceTest, IRSelfJoinThroughAccessOnly) {
  // Q = R(X,Y) & R(Y,X) with access R(a,?): both atoms can be witnessed by
  // the same access when X=Y=a.
  AccessMethodSet acs(&schema_);
  AccessMethodId r_by0 = *acs.Add("r_by0", r_, {0}, true);
  conf_.AddSeedConstant(C("a"), d_);
  UnionQuery q = UCQ("R(X, Y) & R(Y, X)");
  EXPECT_TRUE(IsImmediatelyRelevant(conf_, acs, Access{r_by0, {C("a")}}, q));
}

TEST_F(RelevanceTest, IRAgreesWithBruteForce) {
  AccessMethodSet acs(&schema_);
  AccessMethodId r_by0 = *acs.Add("r_by0", r_, {0}, true);
  AccessMethodId s_check = *acs.Add("s_check", s_, {0}, true);
  AccessMethodId t_free = *acs.Add("t_free", t_, {}, true);

  std::vector<Configuration> confs;
  {
    Configuration c0(&schema_);
    c0.AddSeedConstant(C("a"), d_);
    c0.AddSeedConstant(C("b"), d_);
    confs.push_back(c0);
    Configuration c1 = c0;
    EXPECT_TRUE(c1.AddFactNamed("R", {"a", "b"}).ok());
    confs.push_back(c1);
    Configuration c2 = c1;
    EXPECT_TRUE(c2.AddFactNamed("S", {"b"}).ok());
    EXPECT_TRUE(c2.AddFactNamed("T", {"a"}).ok());
    confs.push_back(c2);
  }
  const char* queries[] = {"R(X, Y) & S(Y)", "S(X)", "S(X) & T(X)",
                           "R(X, Y) & R(Y, Z)", "R(X, Y) | S(X)",
                           "R(X, X)", "T(X) & S(X) & R(X, Y)"};
  BruteForceOptions brute;
  brute.extra_constants_per_domain = 2;

  for (const Configuration& conf : confs) {
    std::vector<Access> accesses = {Access{r_by0, {C("a")}},
                                    Access{r_by0, {C("b")}},
                                    Access{s_check, {C("a")}},
                                    Access{s_check, {C("b")}},
                                    Access{t_free, {}}};
    for (const char* qt : queries) {
      UnionQuery q = UCQ(qt);
      for (const Access& access : accesses) {
        EXPECT_EQ(IsImmediatelyRelevant(conf, acs, access, q),
                  BruteForceIR(conf, acs, access, q, brute))
            << "query " << qt << " access method " << access.method;
      }
    }
  }
}

TEST_F(RelevanceTest, LTRIndependentExample42) {
  // Paper Example 4.2 (via the single-occurrence fast path and the general
  // engine): Q = R(X, five) & R2(five, Z).
  RelationId r2 = *schema_.AddRelation("R2", std::vector<DomainId>{d_, d_});
  AccessMethodSet acs(&schema_);
  AccessMethodId r_by1 = *acs.Add("r_by1", r_, {1}, /*dependent=*/false);
  *acs.Add("r2_any", r2, {0}, /*dependent=*/false);
  auto q = ParseCQ(schema_, "R(X, five) & R2(five, Z)");
  ASSERT_TRUE(q.ok());
  UnionQuery uq;
  uq.disjuncts.push_back(*q);

  Configuration with_35(&schema_);
  ASSERT_TRUE(with_35.AddFactNamed("R", {"3", "five"}).ok());
  Access access{r_by1, {C("five")}};

  auto fast = LtrSingleOccurrenceFastPath(with_35, acs, access, *q);
  ASSERT_TRUE(fast.has_value());
  EXPECT_FALSE(*fast);
  EXPECT_FALSE(IsLongTermRelevantIndependent(with_35, acs, access, uq));

  Configuration with_36(&schema_);
  ASSERT_TRUE(with_36.AddFactNamed("R", {"3", "6"}).ok());
  fast = LtrSingleOccurrenceFastPath(with_36, acs, access, *q);
  ASSERT_TRUE(fast.has_value());
  EXPECT_TRUE(*fast);
  EXPECT_TRUE(IsLongTermRelevantIndependent(with_36, acs, access, uq));
}

TEST_F(RelevanceTest, LTRIndependentExample44RepeatedRelation) {
  // Paper Example 4.4: Q = R(X,Y) & R(X, five), empty configuration,
  // access R(?, three): not LTR (Q is equivalent to ∃x R(x, five)).
  AccessMethodSet acs(&schema_);
  AccessMethodId r_by1 = *acs.Add("r_by1", r_, {1}, /*dependent=*/false);
  UnionQuery q = UCQ("R(X, Y) & R(X, five)");
  Access access{r_by1, {C("three")}};
  // Fast path does not apply (R occurs twice).
  EXPECT_FALSE(
      LtrSingleOccurrenceFastPath(conf_, acs, access, q.disjuncts[0])
          .has_value());
  EXPECT_FALSE(IsLongTermRelevantIndependent(conf_, acs, access, q));
  // The access R(?, five) IS long-term relevant.
  EXPECT_TRUE(IsLongTermRelevantIndependent(
      conf_, acs, Access{r_by1, {C("five")}}, q));
}

TEST_F(RelevanceTest, LTRIndependentAgreesWithBruteForce) {
  AccessMethodSet acs(&schema_);
  AccessMethodId r_any = *acs.Add("r_any", r_, {0}, /*dependent=*/false);
  AccessMethodId s_any = *acs.Add("s_any", s_, {0}, /*dependent=*/false);
  AccessMethodId t_free = *acs.Add("t_free", t_, {}, /*dependent=*/false);

  Configuration conf(&schema_);
  ASSERT_TRUE(conf.AddFactNamed("R", {"a", "b"}).ok());
  ASSERT_TRUE(conf.AddFactNamed("S", {"c"}).ok());

  const char* queries[] = {"R(X, Y) & S(Y)", "S(X)", "S(X) & T(X)",
                           "R(X, Y) & R(Y, Z)", "R(X, X)",
                           "R(X, Y) | S(X)", "R(X, Y) & S(X) & S(Y)"};
  std::vector<Access> accesses = {Access{r_any, {C("a")}},
                                  Access{r_any, {C("z")}},
                                  Access{s_any, {C("c")}},
                                  Access{s_any, {C("z")}},
                                  Access{t_free, {}}};
  BruteForceOptions brute;
  brute.max_steps = 3;
  brute.max_first_response = 2;
  brute.extra_constants_per_domain = 2;

  for (const char* qt : queries) {
    UnionQuery q = UCQ(qt);
    for (const Access& access : accesses) {
      EXPECT_EQ(IsLongTermRelevantIndependent(conf, acs, access, q),
                BruteForceLTR(conf, acs, access, q, brute))
          << "query " << qt << " access method " << access.method << " bind "
          << (access.binding.empty()
                  ? "-"
                  : schema_.ConstantSpelling(access.binding[0]));
    }
  }
}

TEST_F(RelevanceTest, FastPathAgreesWithGeneralEngine) {
  AccessMethodSet acs(&schema_);
  AccessMethodId r_any = *acs.Add("r_any", r_, {0}, /*dependent=*/false);
  *acs.Add("s_any", s_, {0}, /*dependent=*/false);
  *acs.Add("t_free", t_, {}, /*dependent=*/false);

  std::vector<Configuration> confs;
  Configuration c0(&schema_);
  confs.push_back(c0);
  Configuration c1(&schema_);
  ASSERT_TRUE(c1.AddFactNamed("R", {"a", "b"}).ok());
  confs.push_back(c1);
  Configuration c2 = c1;
  ASSERT_TRUE(c2.AddFactNamed("S", {"b"}).ok());
  confs.push_back(c2);

  const char* queries[] = {"R(X, Y) & S(Y)", "R(X, Y) & S(Z)",
                           "R(a, Y) & T(Y)", "R(X, b) & S(X) & T(X)"};
  for (const Configuration& conf : confs) {
    for (const char* qt : queries) {
      ConjunctiveQuery cq = CQ(qt);
      UnionQuery uq;
      uq.disjuncts.push_back(cq);
      for (const char* b : {"a", "b", "z"}) {
        Access access{r_any, {C(b)}};
        auto fast = LtrSingleOccurrenceFastPath(conf, acs, access, cq);
        ASSERT_TRUE(fast.has_value()) << qt;
        EXPECT_EQ(*fast, IsLongTermRelevantIndependent(conf, acs, access, uq))
            << "query " << qt << " binding " << b;
      }
    }
  }
}

TEST_F(RelevanceTest, LTRDependentBooleanAgreesWithBruteForce) {
  AccessMethodSet acs(&schema_);
  AccessMethodId s_bool = *acs.Add("s_bool", s_, {0}, /*dependent=*/true);
  AccessMethodId t_free = *acs.Add("t_free", t_, {}, /*dependent=*/true);
  AccessMethodId r_bool = *acs.Add("r_bool", r_, {0, 1}, /*dependent=*/true);

  Configuration conf(&schema_);
  ASSERT_TRUE(conf.AddFactNamed("R", {"a", "b"}).ok());

  const char* queries[] = {"S(X)",
                           "S(X) & T(X)",
                           "R(X, Y) & S(Y)",
                           "R(a, b) & S(b)",
                           "T(X)",
                           "R(X, Y) & R(Y, Z)"};
  // Only Boolean accesses: Section 5 scopes dependent-case LTR to them
  // (the free access t_free stays in ACS and is used inside paths).
  std::vector<Access> accesses = {Access{s_bool, {C("a")}},
                                  Access{s_bool, {C("b")}},
                                  Access{r_bool, {C("a"), C("a")}},
                                  Access{r_bool, {C("b"), C("a")}}};
  (void)t_free;
  BruteForceOptions brute;
  brute.max_steps = 3;
  brute.max_first_response = 2;
  brute.extra_constants_per_domain = 2;
  ContainmentOptions copts;
  copts.max_aux_facts = 4;

  for (const char* qt : queries) {
    UnionQuery q = UCQ(qt);
    for (const Access& access : accesses) {
      bool brute_ltr = BruteForceLTR(conf, acs, access, q, brute);
      if (q.disjuncts.size() == 1) {
        auto via_35 = IsLongTermRelevantDependentCQ(conf, acs, access,
                                                    q.disjuncts[0], copts);
        ASSERT_TRUE(via_35.ok()) << via_35.status().ToString();
        EXPECT_EQ(*via_35, brute_ltr)
            << "3.5 on query " << qt << " access " << access.method;
      }
      auto via_34 =
          IsLongTermRelevantDependentUCQ(conf, acs, access, q, copts);
      ASSERT_TRUE(via_34.ok()) << via_34.status().ToString();
      EXPECT_EQ(*via_34, brute_ltr)
          << "3.4 on query " << qt << " access " << access.method;
    }
  }
}

TEST_F(RelevanceTest, DependentNonBooleanAccessViaTruncationCut) {
  // A *free* dependent access can be semantically LTR even for a query not
  // mentioning its relation (it supplies input values). Props 3.4/3.5 are
  // Boolean-access algorithms; the truncation-cut extension decides this
  // case, agreeing with the raw-definition brute force.
  AccessMethodSet acs(&schema_);
  *acs.Add("s_bool", s_, {0}, /*dependent=*/true);
  AccessMethodId t_free = *acs.Add("t_free", t_, {}, /*dependent=*/true);
  Configuration conf(&schema_);
  UnionQuery q = UCQ("S(X)");

  BruteForceOptions brute;
  brute.max_steps = 2;
  EXPECT_TRUE(BruteForceLTR(conf, acs, Access{t_free, {}}, q, brute));

  RelevanceAnalyzer analyzer(schema_, acs);
  auto ltr = analyzer.LongTerm(conf, Access{t_free, {}}, q);
  ASSERT_TRUE(ltr.ok()) << ltr.status().ToString();
  EXPECT_TRUE(*ltr);
}

TEST_F(RelevanceTest, GeneralDependentLTRAgreesWithBruteForce) {
  // Non-Boolean dependent accesses across queries and configurations:
  // the truncation-cut extension against the raw semantics.
  AccessMethodSet acs(&schema_);
  AccessMethodId r_by0 = *acs.Add("r_by0", r_, {0}, /*dependent=*/true);
  AccessMethodId s_free = *acs.Add("s_free", s_, {}, /*dependent=*/true);
  *acs.Add("t_bool", t_, {0}, /*dependent=*/true);

  std::vector<Configuration> confs;
  {
    Configuration c0(&schema_);
    c0.AddSeedConstant(C("a"), d_);
    confs.push_back(c0);
    Configuration c1(&schema_);
    EXPECT_TRUE(c1.AddFactNamed("R", {"a", "b"}).ok());
    confs.push_back(c1);
    Configuration c2 = c1;
    EXPECT_TRUE(c2.AddFactNamed("S", {"b"}).ok());
    EXPECT_TRUE(c2.AddFactNamed("T", {"a"}).ok());
    confs.push_back(c2);
  }
  const char* queries[] = {"S(X)", "T(X)", "R(X, Y) & S(Y)",
                           "S(X) & T(X)", "R(X, Y) & R(Y, Z)"};
  BruteForceOptions brute;
  brute.max_steps = 3;
  brute.max_first_response = 2;
  ContainmentOptions copts;
  copts.max_aux_facts = 4;

  for (const Configuration& conf : confs) {
    for (const char* qt : queries) {
      UnionQuery q = UCQ(qt);
      for (const Access& access :
           {Access{r_by0, {C("a")}}, Access{s_free, {}}}) {
        if (!CheckWellFormed(conf, acs, access).ok()) continue;
        bool brute_ltr = BruteForceLTR(conf, acs, access, q, brute);
        auto general = IsLongTermRelevantDependentGeneral(conf, acs, access,
                                                          q, copts);
        ASSERT_TRUE(general.ok()) << general.status().ToString();
        EXPECT_EQ(*general, brute_ltr)
            << "query " << qt << " method " << access.method;
      }
    }
  }
}

TEST_F(RelevanceTest, FastPathRefinementOfProp43) {
  // The literal Prop 4.3 component test would call this access relevant;
  // the truncation argument (and brute force) show it is not: any witness
  // path re-satisfies Q on the truncation via Conf's R(a,b) plus the
  // fabricated S fact.
  AccessMethodSet acs(&schema_);
  AccessMethodId r_any = *acs.Add("r_any", r_, {0}, /*dependent=*/false);
  *acs.Add("s_any", s_, {0}, /*dependent=*/false);
  Configuration conf(&schema_);
  ASSERT_TRUE(conf.AddFactNamed("R", {"a", "b"}).ok());
  ConjunctiveQuery cq = CQ("R(X, Y) & S(Z)");
  UnionQuery uq;
  uq.disjuncts.push_back(cq);
  Access access{r_any, {C("b")}};

  auto fast = LtrSingleOccurrenceFastPath(conf, acs, access, cq);
  ASSERT_TRUE(fast.has_value());
  EXPECT_FALSE(*fast);
  EXPECT_FALSE(IsLongTermRelevantIndependent(conf, acs, access, uq));
  BruteForceOptions brute;
  brute.max_steps = 3;
  EXPECT_FALSE(BruteForceLTR(conf, acs, access, uq, brute));
}

TEST_F(RelevanceTest, IRImpliesLTRProperty) {
  // Property: an immediately relevant access is long-term relevant (a
  // length-one path is a witness).
  AccessMethodSet acs(&schema_);
  AccessMethodId s_bool = *acs.Add("s_bool", s_, {0}, true);
  AccessMethodId t_free = *acs.Add("t_free", t_, {}, true);
  Configuration conf(&schema_);
  ASSERT_TRUE(conf.AddFactNamed("R", {"a", "b"}).ok());

  RelevanceAnalyzer analyzer(schema_, acs);
  const char* queries[] = {"S(X)", "R(X, Y) & S(Y)", "S(X) & T(X)"};
  std::vector<Access> accesses = {Access{s_bool, {C("a")}},
                                  Access{s_bool, {C("b")}},
                                  Access{t_free, {}}};
  for (const char* qt : queries) {
    UnionQuery q = UCQ(qt);
    for (const Access& access : accesses) {
      if (analyzer.Immediate(conf, access, q)) {
        auto ltr = analyzer.LongTerm(conf, access, q);
        ASSERT_TRUE(ltr.ok());
        EXPECT_TRUE(*ltr) << qt;
      }
    }
  }
}

TEST_F(RelevanceTest, CertainQueryHasNoRelevantAccess) {
  AccessMethodSet acs(&schema_);
  AccessMethodId s_bool = *acs.Add("s_bool", s_, {0}, true);
  Configuration conf(&schema_);
  ASSERT_TRUE(conf.AddFactNamed("S", {"a"}).ok());
  UnionQuery q = UCQ("S(X)");
  RelevanceAnalyzer analyzer(schema_, acs);
  Access access{s_bool, {C("a")}};
  EXPECT_FALSE(analyzer.Immediate(conf, access, q));
  auto ltr = analyzer.LongTerm(conf, access, q);
  ASSERT_TRUE(ltr.ok());
  EXPECT_FALSE(*ltr);
}

TEST_F(RelevanceTest, CriticalityBridgeAgreesWithBruteForce) {
  UnionQuery queries[] = {UCQ("R(X, X)"), UCQ("R(X, Y) & R(Y, Z)"),
                          UCQ("R(X, Y) & R(Y, X)"), UCQ("R(a, X)")};
  std::vector<Value> dom = {C("a"), C("b"), C("c")};
  std::vector<Fact> tuples = {Fact(r_, {C("a"), C("a")}),
                              Fact(r_, {C("a"), C("b")}),
                              Fact(r_, {C("b"), C("c")}),
                              Fact(r_, {C("c"), C("a")})};
  for (const UnionQuery& q : queries) {
    for (const Fact& t : tuples) {
      bool brute = BruteForceIsCritical(schema_, q, t, dom);
      auto via_ltr = IsCriticalViaLTR(schema_, q, t, dom);
      ASSERT_TRUE(via_ltr.ok()) << via_ltr.status().ToString();
      EXPECT_EQ(*via_ltr, brute) << t.ToString(schema_);
    }
  }
}

TEST_F(RelevanceTest, KAryImmediateViaProp22) {
  // Q(X) :- R(X, Y) & S(Y): the S(b)? access creates the new certain
  // answer X=a given R(a,b).
  AccessMethodSet acs(&schema_);
  AccessMethodId s_check = *acs.Add("s_check", s_, {0}, true);
  Configuration conf(&schema_);
  ASSERT_TRUE(conf.AddFactNamed("R", {"a", "b"}).ok());
  ConjunctiveQuery cq = CQ("R(X, Y) & S(Y)");
  cq.head = {0};
  UnionQuery q;
  q.disjuncts.push_back(cq);

  RelevanceAnalyzer analyzer(schema_, acs);
  auto ir = analyzer.ImmediateKAry(conf, Access{s_check, {C("b")}}, q);
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  EXPECT_TRUE(*ir);
  auto ir2 = analyzer.ImmediateKAry(conf, Access{s_check, {C("a")}}, q);
  ASSERT_TRUE(ir2.ok());
  EXPECT_FALSE(*ir2);
}

TEST_F(RelevanceTest, KAryLongTermViaProp22) {
  // Q(X) :- S(X) & T(X) with Boolean dependent accesses: S(a)? is LTR
  // exactly for the instantiation X=a, which needs T(a) obtainable too.
  AccessMethodSet acs(&schema_);
  AccessMethodId s_bool = *acs.Add("s_bool", s_, {0}, true);
  *acs.Add("t_bool", t_, {0}, true);
  Configuration conf(&schema_);
  conf.AddSeedConstant(C("a"), d_);
  ConjunctiveQuery cq = CQ("S(X) & T(X)");
  cq.head = {0};
  UnionQuery q;
  q.disjuncts.push_back(cq);
  RelevanceAnalyzer analyzer(schema_, acs);
  auto ltr = analyzer.LongTermKAry(conf, Access{s_bool, {C("a")}}, q);
  ASSERT_TRUE(ltr.ok()) << ltr.status().ToString();
  EXPECT_TRUE(*ltr);

  // With T fixed empty (no method, no facts), no instantiation can ever
  // become true: not LTR.
  AccessMethodSet acs2(&schema_);
  AccessMethodId s_bool2 = *acs2.Add("s_bool", s_, {0}, true);
  RelevanceAnalyzer analyzer2(schema_, acs2);
  auto ltr2 = analyzer2.LongTermKAry(conf, Access{s_bool2, {C("a")}}, q);
  ASSERT_TRUE(ltr2.ok()) << ltr2.status().ToString();
  EXPECT_FALSE(*ltr2);
}

TEST_F(RelevanceTest, IllFormedAccessNeverRelevant) {
  AccessMethodSet acs(&schema_);
  AccessMethodId s_bool = *acs.Add("s_bool", s_, {0}, true);
  Configuration conf(&schema_);  // empty adom
  UnionQuery q = UCQ("S(X)");
  RelevanceAnalyzer analyzer(schema_, acs);
  Access ill{s_bool, {C("nowhere")}};
  EXPECT_FALSE(analyzer.Immediate(conf, ill, q));
  auto ltr = analyzer.LongTerm(conf, ill, q);
  ASSERT_TRUE(ltr.ok());
  EXPECT_FALSE(*ltr);
}

}  // namespace
}  // namespace rar
