// Unit tests for the BoolCircuit gate compiler: every gate/macro is
// checked by evaluating the emitted conjunctive query against the truth
// tables, for all input combinations.
#include <gtest/gtest.h>

#include "hardness/bool_circuit.h"
#include "query/eval.h"

namespace rar {
namespace {

class CircuitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    b_ = schema_.AddDomain("B");
    and_ = *schema_.AddRelation("And", std::vector<DomainId>{b_, b_, b_});
    or_ = *schema_.AddRelation("Or", std::vector<DomainId>{b_, b_, b_});
    eq_ = *schema_.AddRelation("Eq", std::vector<DomainId>{b_, b_, b_});
    zero_ = schema_.InternConstant("0");
    one_ = schema_.InternConstant("1");

    conf_ = Configuration(&schema_);
    const Value bits[2] = {zero_, one_};
    for (int a = 0; a <= 1; ++a) {
      for (int b = 0; b <= 1; ++b) {
        conf_.AddFact(Fact(and_, {bits[a], bits[b], bits[a && b]}));
        conf_.AddFact(Fact(or_, {bits[a], bits[b], bits[a || b]}));
        conf_.AddFact(Fact(eq_, {bits[a], bits[b], bits[a == b]}));
      }
    }
  }

  Term Bit(bool v) { return Term::MakeConst(v ? one_ : zero_); }

  // Evaluates a circuit output: builds Q = gates ∧ (out == expected) and
  // checks satisfiability over the truth tables.
  bool OutputEquals(ConjunctiveQuery& cq, BoolCircuit& /*circuit*/, Term out,
                    bool expected) {
    ConjunctiveQuery probe = cq;
    BoolCircuit probe_circuit(&probe, and_, or_, eq_, zero_, one_);
    // Pin: Eq(out, expected-bit) must evaluate to 1.
    probe.atoms.push_back(
        Atom{eq_, {out, Bit(expected), probe_circuit.OneConst()}});
    (void)probe.Validate(schema_);
    return EvalBool(probe, conf_);
  }

  Schema schema_;
  DomainId b_ = 0;
  RelationId and_ = 0, or_ = 0, eq_ = 0;
  Value zero_, one_;
  Configuration conf_{nullptr};
};

TEST_F(CircuitTest, BasicGatesMatchTruthTables) {
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      {
        ConjunctiveQuery cq;
        BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
        Term w = c.And(Bit(a), Bit(b));
        EXPECT_TRUE(OutputEquals(cq, c, w, a && b)) << a << "&" << b;
        EXPECT_FALSE(OutputEquals(cq, c, w, !(a && b)));
      }
      {
        ConjunctiveQuery cq;
        BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
        Term w = c.Or(Bit(a), Bit(b));
        EXPECT_TRUE(OutputEquals(cq, c, w, a || b)) << a << "|" << b;
      }
      {
        ConjunctiveQuery cq;
        BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
        Term w = c.Eq(Bit(a), Bit(b));
        EXPECT_TRUE(OutputEquals(cq, c, w, a == b)) << a << "==" << b;
      }
    }
  }
}

TEST_F(CircuitTest, NotAndBitTests) {
  ConjunctiveQuery cq;
  BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
  EXPECT_TRUE(OutputEquals(cq, c, c.Not(Bit(0)), true));
  EXPECT_TRUE(OutputEquals(cq, c, c.Not(Bit(1)), false));
  EXPECT_TRUE(OutputEquals(cq, c, c.IsZero(Bit(0)), true));
  EXPECT_TRUE(OutputEquals(cq, c, c.IsOne(Bit(1)), true));
  EXPECT_TRUE(OutputEquals(cq, c, c.IsOne(Bit(0)), false));
}

TEST_F(CircuitTest, FoldsHandleEmptyAndSingleton) {
  ConjunctiveQuery cq;
  BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
  EXPECT_TRUE(OutputEquals(cq, c, c.AndAll({}), true));
  EXPECT_TRUE(OutputEquals(cq, c, c.OrAll({}), false));
  EXPECT_TRUE(OutputEquals(cq, c, c.AndAll({Bit(1), Bit(1), Bit(0)}), false));
  EXPECT_TRUE(OutputEquals(cq, c, c.OrAll({Bit(0), Bit(0), Bit(1)}), true));
}

TEST_F(CircuitTest, SuccessorCircuitOverTwoBits) {
  // All pairs of 2-bit vectors: s = 1 iff y = x + 1.
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      ConjunctiveQuery cq;
      BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
      std::vector<Term> xs = {Bit((x >> 1) & 1), Bit(x & 1)};
      std::vector<Term> ys = {Bit((y >> 1) & 1), Bit(y & 1)};
      Term s = c.Successor(xs, ys);
      EXPECT_TRUE(OutputEquals(cq, c, s, y == x + 1))
          << x << " -> " << y;
    }
  }
}

TEST_F(CircuitTest, VectorEqAndVectorIs) {
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      ConjunctiveQuery cq;
      BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
      std::vector<Term> xs = {Bit((x >> 1) & 1), Bit(x & 1)};
      std::vector<Term> ys = {Bit((y >> 1) & 1), Bit(y & 1)};
      EXPECT_TRUE(OutputEquals(cq, c, c.VectorEq(xs, ys), x == y));
    }
    for (uint64_t v = 0; v < 4; ++v) {
      ConjunctiveQuery cq;
      BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
      std::vector<Term> xs = {Bit((x >> 1) & 1), Bit(x & 1)};
      EXPECT_TRUE(OutputEquals(cq, c, c.VectorIs(xs, v),
                               static_cast<uint64_t>(x) == v));
    }
  }
}

TEST_F(CircuitTest, AssertZeroConstrainsSatisfiability) {
  {
    ConjunctiveQuery cq;
    BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
    c.AssertZero(c.And(Bit(1), Bit(1)));  // 1 ∧ 1 = 0: unsatisfiable
    (void)cq.Validate(schema_);
    EXPECT_FALSE(EvalBool(cq, conf_));
  }
  {
    ConjunctiveQuery cq;
    BoolCircuit c(&cq, and_, or_, eq_, zero_, one_);
    c.AssertZero(c.And(Bit(1), Bit(0)));  // 1 ∧ 0 = 0: satisfiable
    (void)cq.Validate(schema_);
    EXPECT_TRUE(EvalBool(cq, conf_));
  }
}

}  // namespace
}  // namespace rar
