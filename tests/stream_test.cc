// Standing k-ary relevance streams (src/stream/): incremental per-binding
// maintenance must be observationally equivalent to re-running the one-
// shot Prop 2.2 wrappers from scratch after every response. The
// load-bearing properties: (1) after any growth sequence, every tracked
// binding's certain/relevant state equals a fresh per-binding evaluation
// (and the stream-level verdict equals fresh ImmediateKAry/LongTermKAry
// calls), including bindings born from new active-domain values
// mid-stream; (2) a single-relation apply on a multi-relation schema
// rechecks only footprint-hit bindings — counter-verified; (3) the delta
// protocol (Poll) reports exactly the binding transitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "engine/engine.h"
#include "query/eval.h"
#include "query/parser.h"
#include "relational/overlay.h"
#include "relevance/head_instantiator.h"
#include "relevance/immediate.h"
#include "relevance/relevance.h"
#include "sim/deep_web.h"
#include "stream/registry.h"
#include "util/rng.h"

namespace rar {
namespace {

// The reference instantiation of a k-ary query at a concrete head tuple:
// bind every head position, drop disjuncts whose repeated head variables
// received conflicting values (they are unsatisfiable).
UnionQuery InstantiateAt(const UnionQuery& query,
                         const std::vector<Value>& tuple) {
  UnionQuery out;
  for (const ConjunctiveQuery& d : query.disjuncts) {
    std::vector<std::optional<Value>> binding(d.num_vars());
    bool satisfiable = true;
    for (size_t i = 0; i < d.head.size(); ++i) {
      std::optional<Value>& slot = binding[d.head[i]];
      if (slot.has_value() && !(*slot == tuple[i])) {
        satisfiable = false;
        break;
      }
      slot = tuple[i];
    }
    if (!satisfiable) continue;
    ConjunctiveQuery inst = Specialize(d, binding);
    inst.head.clear();
    out.disjuncts.push_back(std::move(inst));
  }
  return out;
}

// Head output domains of a validated k-ary query.
std::vector<DomainId> HeadDomains(const UnionQuery& query) {
  std::vector<DomainId> out;
  for (VarId h : query.disjuncts[0].head) {
    out.push_back(query.disjuncts[0].var_domains[h]);
  }
  return out;
}

// Checks every stream binding against a fresh evaluation over a snapshot
// of the engine state, and the stream-level verdict against the one-shot
// k-ary wrappers.
void ExpectStreamParity(RelevanceEngine& engine,
                        RelevanceStreamRegistry& registry, StreamId sid,
                        const UnionQuery& query, const StreamOptions& opts,
                        const AccessMethodSet& acs, const char* where) {
  Configuration conf = engine.SnapshotConfig();
  std::vector<Access> pending = engine.PendingAccesses();
  std::vector<DomainId> head_domains = HeadDomains(query);
  RelevanceAnalyzer analyzer(*conf.schema(), acs);
  StreamSnapshot snap = registry.Snapshot(sid);

  for (const BindingView& b : snap.bindings) {
    UnionQuery q_b = InstantiateAt(query, b.binding);
    if (b.unsat) {
      EXPECT_TRUE(q_b.disjuncts.empty()) << where;
      EXPECT_FALSE(b.certain) << where;
      EXPECT_FALSE(b.relevant) << where;
      continue;
    }
    ASSERT_FALSE(q_b.disjuncts.empty()) << where;
    // The seeded view the one-shot wrappers evaluate over: the binding's
    // values registered as known (fresh head constants included).
    OverlayConfiguration seeded(&conf);
    for (size_t i = 0; i < b.binding.size(); ++i) {
      seeded.AddSeedConstant(b.binding[i], head_domains[i]);
    }
    const bool expect_certain = EvalBool(q_b, seeded);
    EXPECT_EQ(b.certain, expect_certain)
        << where << " binding certain mismatch";
    bool expect_relevant = false;
    if (!expect_certain) {
      for (const Access& a : pending) {
        if (opts.use_immediate && IsImmediatelyRelevant(seeded, acs, a, q_b)) {
          expect_relevant = true;
          break;
        }
        if (opts.use_long_term) {
          Result<bool> ltr = analyzer.LongTerm(seeded, a, q_b);
          if (ltr.ok() ? *ltr : opts.conservative_on_unknown) {
            expect_relevant = true;
            break;
          }
        }
      }
    }
    EXPECT_EQ(b.relevant, expect_relevant)
        << where << " binding relevant mismatch";
    if (b.relevant) EXPECT_TRUE(b.has_witness) << where;
  }

  // Stream-level verdict == fresh one-shot k-ary calls (Prop 2.2's OR
  // over instantiations, OR'd over the pending frontier).
  bool expect_any = false;
  for (const Access& a : pending) {
    if (opts.use_immediate) {
      Result<bool> ir = analyzer.ImmediateKAry(conf, a, query);
      ASSERT_TRUE(ir.ok()) << where;
      if (*ir) {
        expect_any = true;
        break;
      }
    }
    if (opts.use_long_term) {
      Result<bool> ltr = analyzer.LongTermKAry(conf, a, query);
      if (ltr.ok() ? *ltr : opts.conservative_on_unknown) {
        expect_any = true;
        break;
      }
    }
  }
  EXPECT_EQ(registry.AnyRelevant(sid), expect_any)
      << where << " stream-level verdict mismatch";
}

class StreamTest : public ::testing::Test {
 protected:
  Value C(Schema& schema, const std::string& s) {
    return schema.InternConstant(s);
  }
};

// --- HeadInstantiator satellites: slot dedup and lazy candidates -------

TEST_F(StreamTest, InstantiatorDedupesRepeatedHeadPositions) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  RelationId r = *schema.AddRelation("R", std::vector<DomainId>{d, d});
  ConjunctiveQuery q = *ParseCQ(schema, "R(X, Y)");
  VarId y = 0;
  for (int v = 0; v < q.num_vars(); ++v) {
    if (q.var_names[v] == "Y") y = v;
  }
  q.head = {y, y};  // Q(Y, Y): both positions share one slot
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(schema).ok());

  HeadInstantiator inst(schema, uq);
  ASSERT_TRUE(inst.status().ok());
  EXPECT_EQ(inst.arity(), 2u);
  EXPECT_EQ(inst.num_slots(), 1u);
  EXPECT_EQ(inst.fresh_constants().size(), 1u);

  Configuration conf(&schema);
  conf.AddSeedConstant(C(schema, "a"), d);
  conf.AddSeedConstant(C(schema, "b"), d);
  HeadCandidates cands = inst.CollectCandidates(conf);
  int count = 0;
  inst.ForEachBinding(cands, [&](const std::vector<Value>& slots) {
    EXPECT_EQ(slots.size(), 1u);
    std::vector<Value> tuple = inst.ExpandTuple(slots);
    EXPECT_EQ(tuple.size(), 2u);
    EXPECT_EQ(tuple[0], tuple[1]);
    ++count;
    return false;
  });
  // |adom| + one fresh — not (|adom| + fresh)^2.
  EXPECT_EQ(count, 3);
}

TEST_F(StreamTest, InstantiatorDropsConflictedDisjuncts) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  (void)*schema.AddRelation("R", std::vector<DomainId>{d, d});
  (void)*schema.AddRelation("S", std::vector<DomainId>{d, d});
  // Disjunct 1 repeats X in the head; disjunct 2 exports two distinct
  // variables — the positions do NOT collapse globally, and tuples (a, b)
  // with a != b must instantiate disjunct 1 to nothing (not to S... R(b,b)).
  ConjunctiveQuery d1 = *ParseCQ(schema, "R(X, X)");
  d1.head = {0, 0};
  ConjunctiveQuery d2 = *ParseCQ(schema, "S(X, Y)");
  d2.head = {0, 1};
  UnionQuery uq;
  uq.disjuncts = {d1, d2};
  ASSERT_TRUE(uq.Validate(schema).ok());

  HeadInstantiator inst(schema, uq);
  ASSERT_TRUE(inst.status().ok());
  EXPECT_EQ(inst.num_slots(), 2u);

  Value a = C(schema, "a"), b = C(schema, "b");
  UnionQuery same = inst.Instantiate({a, a});
  EXPECT_EQ(same.disjuncts.size(), 2u);
  UnionQuery differ = inst.Instantiate({a, b});
  ASSERT_EQ(differ.disjuncts.size(), 1u);  // the R(X,X) disjunct dropped
  EXPECT_EQ(differ.disjuncts[0].atoms[0].relation,
            schema.FindRelation("S"));
}

TEST_F(StreamTest, InstantiatorDeltaEnumeration) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  (void)*schema.AddRelation("R", std::vector<DomainId>{d, d});
  ConjunctiveQuery q = *ParseCQ(schema, "R(X, Y)");
  q.head = {0, 1};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(schema).ok());
  HeadInstantiator inst(schema, uq);
  ASSERT_TRUE(inst.status().ok());

  Configuration conf(&schema);
  conf.AddSeedConstant(C(schema, "a"), d);
  conf.AddSeedConstant(C(schema, "b"), d);
  HeadCandidates cands = inst.CollectCandidates(conf);

  std::set<std::vector<Value>> all_before;
  inst.ForEachBinding(cands, [&](const std::vector<Value>& s) {
    all_before.insert(inst.ExpandTuple(s));
    return false;
  });

  // Grow the domain by one value; delta enumeration must emit exactly the
  // tuples using it, each once.
  cands.seen[0] = cands.values[0].size();
  conf.AddSeedConstant(C(schema, "c"), d);
  inst.ExtendCandidates(conf, &cands);
  std::set<std::vector<Value>> fresh_tuples;
  size_t emitted = 0;
  inst.ForEachNewBinding(cands, [&](const std::vector<Value>& s) {
    fresh_tuples.insert(inst.ExpandTuple(s));
    ++emitted;
    return false;
  });
  EXPECT_EQ(emitted, fresh_tuples.size()) << "duplicate delta tuples";
  std::set<std::vector<Value>> all_after;
  cands.seen[0] = 0;
  inst.ForEachBinding(cands, [&](const std::vector<Value>& s) {
    all_after.insert(inst.ExpandTuple(s));
    return false;
  });
  EXPECT_EQ(all_before.size() + fresh_tuples.size(), all_after.size());
  for (const std::vector<Value>& t : fresh_tuples) {
    EXPECT_EQ(all_before.count(t), 0u);
    EXPECT_EQ(all_after.count(t), 1u);
  }
}

// --- Incremental maintenance: footprint narrowing, counter-verified ----

TEST_F(StreamTest, SingleRelationApplyRechecksOnlyFootprintHitBindings) {
  auto schema = std::make_shared<Schema>();
  DomainId d0 = schema->AddDomain("D0");
  DomainId d1 = schema->AddDomain("D1");
  RelationId a0 = *schema->AddRelation("A0", {{"x", d0}, {"y", d0}});
  RelationId b0 = *schema->AddRelation("B0", {{"x", d0}, {"y", d0}});
  RelationId a1 = *schema->AddRelation("A1", {{"x", d1}, {"y", d1}});
  AccessMethodSet acs(schema.get());
  AccessMethodId ma0 = *acs.Add("a0", a0, {0}, /*dependent=*/true);
  (void)*acs.Add("b0", b0, {0}, /*dependent=*/true);
  AccessMethodId ma1 = *acs.Add("a1", a1, {0}, /*dependent=*/true);

  Configuration conf(schema.get());
  std::vector<Value> c0s, c1s;
  for (int i = 0; i < 3; ++i) {
    c0s.push_back(schema->InternConstant("c0_" + std::to_string(i)));
    conf.AddSeedConstant(c0s.back(), d0);
    c1s.push_back(schema->InternConstant("c1_" + std::to_string(i)));
    conf.AddSeedConstant(c1s.back(), d1);
  }

  // Q(X) :- A0(X, Y), B0(Y, Z): footprint {A0, B0}; A1 is foreign.
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
  StreamOptions sopts;  // IR-only
  StreamId sid = *registry.Register(uq, sopts);

  const uint64_t bindings = engine.stats().stream_bindings;
  EXPECT_EQ(bindings, c0s.size() + 1)  // adom values + one fresh constant
      << engine.stats().ToString();
  EngineStats base = engine.stats();

  // Footprint-disjoint apply (existing values: Adom fixed): zero bindings
  // rechecked, every live binding skipped.
  ASSERT_TRUE(engine
                  .ApplyResponse(Access{ma1, {c1s[0]}},
                                 {Fact(a1, {c1s[0], c1s[1]})})
                  .ok());
  EngineStats after_foreign = engine.stats();
  EXPECT_EQ(after_foreign.stream_rechecks, base.stream_rechecks)
      << "foreign-relation apply must not recheck any binding";
  EXPECT_EQ(after_foreign.stream_skips - base.stream_skips, bindings);
  ASSERT_EQ(after_foreign.stream_rechecks_by_relation.size(),
            schema->num_relations() + 1);
  EXPECT_EQ(after_foreign.stream_rechecks_by_relation[a1], 0u);

  // Footprint-hit apply: the landed fact A0(c0_0, c0_1) constrains head
  // slot X at position 0, so the value gate rechecks exactly the X=c0_0
  // binding and restamps the rest without evaluation (attributed to A0).
  ASSERT_TRUE(engine
                  .ApplyResponse(Access{ma0, {c0s[0]}},
                                 {Fact(a0, {c0s[0], c0s[1]})})
                  .ok());
  EngineStats after_hit = engine.stats();
  EXPECT_EQ(after_hit.stream_rechecks - after_foreign.stream_rechecks, 1u);
  EXPECT_EQ(after_hit.stream_rechecks_by_relation[a0], 1u);
  EXPECT_EQ(after_hit.stream_value_gate_skips, bindings - 1);

  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "two-group");
}

// --- Property: stream verdicts == fresh per-binding evaluation ---------

TEST_F(StreamTest, ParityUnderRandomGrowthWithNewAdomValues) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", {{"x", d}, {"y", d}});
  RelationId s_rel = *schema->AddRelation("S", {{"x", d}});
  AccessMethodSet acs(schema.get());
  AccessMethodId mr = *acs.Add("r", r, {0}, /*dependent=*/true);
  AccessMethodId ms = *acs.Add("s", s_rel, {}, /*dependent=*/true);

  // Two disjuncts with distinct bodies over one head variable.
  ConjunctiveQuery d1;
  {
    VarId x = d1.AddVar("X", d);
    VarId y = d1.AddVar("Y", d);
    d1.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
    d1.atoms.push_back(Atom{s_rel, {Term::MakeVar(y)}});
    d1.head = {x};
  }
  ConjunctiveQuery d2;
  {
    VarId x = d2.AddVar("X", d);
    d2.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(x)}});
    d2.head = {x};
  }
  UnionQuery uq;
  uq.disjuncts = {d1, d2};
  ASSERT_TRUE(uq.Validate(*schema).ok());

  Value a = schema->InternConstant("a");
  Value b = schema->InternConstant("b");
  Configuration conf(schema.get());
  conf.AddSeedConstant(a, d);
  conf.AddSeedConstant(b, d);
  ASSERT_TRUE(conf.AddFactNamed("R", {"a", "b"}).ok());

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamOptions sopts;  // IR-only
  StreamId sid = *registry.Register(uq, sopts);
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "initial");

  // Scripted growth, including responses that introduce brand-new values
  // (n1, n2): bindings must be born mid-stream and evaluated correctly.
  Value n1 = schema->InternConstant("n1");
  Value n2 = schema->InternConstant("n2");
  const std::vector<std::pair<Access, std::vector<Fact>>> script = {
      {Access{mr, {b}}, {Fact(r, {b, n1})}},               // new value n1
      {Access{ms, {}}, {Fact(s_rel, {n1})}},               // S grows
      {Access{mr, {a}}, {Fact(r, {a, a}), Fact(r, {a, n1})}},
      {Access{mr, {n1}}, {Fact(r, {n1, n2})}},             // new value n2
      {Access{ms, {}}, {Fact(s_rel, {b}), Fact(s_rel, {n2})}},
  };
  size_t step = 0;
  for (const auto& [access, response] : script) {
    ASSERT_TRUE(engine.ApplyResponse(access, response).ok());
    ExpectStreamParity(engine, registry, sid, uq, sopts, acs,
                       ("step " + std::to_string(step)).c_str());
    ++step;
  }
  // The new values produced bindings mid-stream.
  StreamSnapshot snap = registry.Snapshot(sid);
  size_t with_n = 0;
  for (const BindingView& bv : snap.bindings) {
    if (bv.binding[0] == n1 || bv.binding[0] == n2) ++with_n;
  }
  EXPECT_EQ(with_n, 2u);
  EXPECT_GT(engine.stats().stream_new_bindings, 0u);
}

TEST_F(StreamTest, LongTermParityAllIndependent) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", {{"x", d}, {"y", d}});
  RelationId s_rel = *schema->AddRelation("S", {{"x", d}, {"y", d}});
  AccessMethodSet acs(schema.get());
  AccessMethodId mr = *acs.Add("r", r, {0}, /*dependent=*/false);
  (void)*acs.Add("s", s_rel, {0}, /*dependent=*/false);

  ConjunctiveQuery q;
  VarId x = q.AddVar("X", d);
  VarId y = q.AddVar("Y", d);
  VarId z = q.AddVar("Z", d);
  q.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{s_rel, {Term::MakeVar(y), Term::MakeVar(z)}});
  q.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  Value a = schema->InternConstant("a");
  Value b = schema->InternConstant("b");
  Configuration conf(schema.get());
  conf.AddSeedConstant(a, d);
  conf.AddSeedConstant(b, d);

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamOptions sopts;
  sopts.use_immediate = true;
  sopts.use_long_term = true;
  StreamId sid = *registry.Register(uq, sopts);
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "ltr initial");

  ASSERT_TRUE(
      engine.ApplyResponse(Access{mr, {a}}, {Fact(r, {a, b})}).ok());
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "ltr step 0");
  ASSERT_TRUE(
      engine.ApplyResponse(Access{mr, {b}}, {Fact(r, {b, b})}).ok());
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "ltr step 1");
}

// --- Value-gated hit waves ---------------------------------------------

// Property: the value-gated registry, the force_full_recheck registry, and
// fresh one-shot evaluation agree after every step of a random growth
// script that includes repeated-value facts, redundant responses,
// Adom-growing applies (bindings born mid-stream), and certainty
// transitions. Fresh head constants are minted per registry, so fresh
// bindings are compared positionally.
TEST_F(StreamTest, ValueGatedParityAgainstForcedFullRecheck) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", {{"x", d}, {"y", d}});
  RelationId s_rel = *schema->AddRelation("S", {{"x", d}});
  AccessMethodSet acs(schema.get());
  AccessMethodId mr = *acs.Add("r", r, {0}, /*dependent=*/true);
  AccessMethodId ms = *acs.Add("s", s_rel, {}, /*dependent=*/true);

  // Q(X) :- R(X, Y), S(Y)  |  R(X, X): slot-constrained R atoms plus an
  // unconstrained-position S atom, and a disjunct that turns certain on
  // reflexive facts.
  ConjunctiveQuery d1;
  {
    VarId x = d1.AddVar("X", d);
    VarId y = d1.AddVar("Y", d);
    d1.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
    d1.atoms.push_back(Atom{s_rel, {Term::MakeVar(y)}});
    d1.head = {x};
  }
  ConjunctiveQuery d2;
  {
    VarId x = d2.AddVar("X", d);
    d2.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(x)}});
    d2.head = {x};
  }
  UnionQuery uq;
  uq.disjuncts = {d1, d2};
  ASSERT_TRUE(uq.Validate(*schema).ok());

  std::vector<Value> values;
  for (int i = 0; i < 4; ++i) {
    values.push_back(schema->InternConstant("v" + std::to_string(i)));
  }
  Configuration conf(schema.get());
  for (const Value& v : values) conf.AddSeedConstant(v, d);

  RelevanceEngine gated_engine(*schema, acs, conf);
  RelevanceStreamRegistry gated(&gated_engine);
  StreamOptions gated_opts;  // IR-only, gate on by default
  StreamId gated_id = *gated.Register(uq, gated_opts);

  RelevanceEngine forced_engine(*schema, acs, conf);
  RelevanceStreamRegistry forced(&forced_engine);
  StreamOptions forced_opts;
  forced_opts.force_full_recheck = true;
  StreamId forced_id = *forced.Register(uq, forced_opts);

  auto expect_same = [&](const char* where) {
    StreamSnapshot a = gated.Snapshot(gated_id);
    StreamSnapshot b = forced.Snapshot(forced_id);
    ASSERT_EQ(a.bindings_tracked, b.bindings_tracked) << where;
    EXPECT_EQ(a.certain, b.certain) << where;
    EXPECT_EQ(a.relevant, b.relevant) << where;
    for (size_t i = 0; i < a.bindings.size(); ++i) {
      const BindingView& ba = a.bindings[i];
      const BindingView& bb = b.bindings[i];
      EXPECT_EQ(ba.has_fresh, bb.has_fresh) << where << " binding " << i;
      if (!ba.has_fresh) {
        EXPECT_EQ(ba.binding, bb.binding) << where << " binding " << i;
      }
      EXPECT_EQ(ba.certain, bb.certain) << where << " binding " << i;
      EXPECT_EQ(ba.relevant, bb.relevant) << where << " binding " << i;
      EXPECT_EQ(ba.unsat, bb.unsat) << where << " binding " << i;
    }
  };
  expect_same("initial");

  Rng rng(20260729);
  int minted = 0;
  for (int step = 0; step < 40; ++step) {
    Access access;
    std::vector<Fact> response;
    if (rng.Chance(0.3)) {
      // S response over known values (unconstrained-position hit).
      access = Access{ms, {}};
      response.push_back(Fact(s_rel, {values[rng.Below(values.size())]}));
    } else {
      const Value& a = values[rng.Below(values.size())];
      Value b;
      if (rng.Chance(0.15)) {
        b = schema->InternConstant("n" + std::to_string(minted++));
      } else if (rng.Chance(0.2)) {
        b = a;  // reflexive: flips the R(X,X) disjunct certain
      } else {
        b = values[rng.Below(values.size())];
      }
      access = Access{mr, {a}};
      response.push_back(Fact(r, {a, b}));
      if (rng.Chance(0.3)) response.push_back(response.back());  // repeat
      if (b.is_constant() &&
          std::find(values.begin(), values.end(), b) == values.end()) {
        values.push_back(b);  // now in Adom: usable as a future input
      }
    }
    ASSERT_TRUE(gated_engine.ApplyResponse(access, response).ok());
    ASSERT_TRUE(forced_engine.ApplyResponse(access, response).ok());
    const std::string where = "step " + std::to_string(step);
    expect_same(where.c_str());
    ExpectStreamParity(gated_engine, gated, gated_id, uq, gated_opts, acs,
                       where.c_str());
  }
  // The gate must have actually fired (and never on the forced registry).
  EXPECT_GT(gated_engine.stats().stream_value_gate_skips, 0u);
  EXPECT_EQ(forced_engine.stats().stream_value_gate_skips, 0u);
  EXPECT_LT(gated_engine.stats().stream_rechecks,
            forced_engine.stats().stream_rechecks);
}

// Counter contract of the gate on a constructed skewed workload: hits
// carrying one hot head value recheck only its binding; unconstrained-
// position hits, Adom-growing applies, and dependent-LTR streams fall
// back with the right attribution.
TEST_F(StreamTest, ValueGateSkipsAndFallbackAttribution) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r0 = *schema->AddRelation("R0", {{"x", d}, {"y", d}});
  RelationId s0 = *schema->AddRelation("S0", {{"x", d}, {"y", d}});
  AccessMethodSet acs(schema.get());
  AccessMethodId m0 = *acs.Add("r0", r0, {0}, /*dependent=*/true);
  AccessMethodId ms0 = *acs.Add("s0", s0, {0}, /*dependent=*/true);

  // Q(X) :- R0(X, Y), S0(Y, Z): R0 is slot-constrained at position 0, S0
  // atoms carry no head variable at all.
  ConjunctiveQuery q;
  VarId x = q.AddVar("X", d);
  VarId y = q.AddVar("Y", d);
  VarId z = q.AddVar("Z", d);
  q.atoms.push_back(Atom{r0, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{s0, {Term::MakeVar(y), Term::MakeVar(z)}});
  q.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  std::vector<Value> vals;
  Configuration conf(schema.get());
  for (int i = 0; i < 6; ++i) {
    vals.push_back(schema->InternConstant("v" + std::to_string(i)));
    conf.AddSeedConstant(vals.back(), d);
  }

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamOptions sopts;  // IR-only
  StreamId sid = *registry.Register(uq, sopts);
  const uint64_t bindings = engine.stats().stream_bindings;  // 6 + fresh

  // Skewed hit burst: every landed fact carries the hot head value v0, so
  // each wave rechecks at most the v0 binding (plus a possible witness
  // repair) and gate-skips the rest.
  EngineStats before = engine.stats();
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(engine
                    .ApplyResponse(Access{m0, {vals[0]}},
                                   {Fact(r0, {vals[0], vals[i]})})
                    .ok());
  }
  EngineStats after = engine.stats();
  EXPECT_GT(after.stream_value_gate_skips, 0u);
  EXPECT_GE(after.stream_value_gate_skips - before.stream_value_gate_skips,
            3 * (bindings - 2));
  EXPECT_LE(after.stream_rechecks - before.stream_rechecks, 2u * 4u);
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "skewed");

  // Unconstrained-position hit: the S0 atom imposes no head constraint.
  // The semijoin chase narrows the certainty side, but the binding set
  // here is mostly irrelevant-uncertain (R0 reaches only v0), and that
  // residual stays in the wave — attributed fallback.
  before = after;
  ASSERT_TRUE(engine
                  .ApplyResponse(Access{ms0, {vals[1]}},
                                 {Fact(s0, {vals[1], vals[2]})})
                  .ok());
  after = engine.stats();
  EXPECT_GT(after.stream_value_gate_fallback_unconstrained,
            before.stream_value_gate_fallback_unconstrained);
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "unconstrained");

  // Adom-growing apply: the wave is delta-gated, but the irrelevant-
  // uncertain residual (freshly minted accesses may be relevant to those
  // bindings) is rechecked and attributed.
  before = after;
  Value fresh_val = schema->InternConstant("grown");
  ASSERT_TRUE(engine
                  .ApplyResponse(Access{m0, {vals[0]}},
                                 {Fact(r0, {vals[0], fresh_val})})
                  .ok());
  after = engine.stats();
  EXPECT_GT(after.stream_value_gate_fallback_adom,
            before.stream_value_gate_fallback_adom);
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "adom-growth");

  // Dependent-LTR stream: the gate is off wholesale (production chains are
  // not bounded by atom unification) — every hit recheck is attributed.
  RelevanceEngine ltr_engine(*schema, acs, conf);
  RelevanceStreamRegistry ltr_registry(&ltr_engine);
  StreamOptions ltr_opts;
  ltr_opts.use_long_term = true;
  StreamId ltr_sid = *ltr_registry.Register(uq, ltr_opts);
  (void)ltr_sid;
  ASSERT_TRUE(ltr_engine
                  .ApplyResponse(Access{m0, {vals[0]}},
                                 {Fact(r0, {vals[0], vals[1]})})
                  .ok());
  EngineStats ltr_stats = ltr_engine.stats();
  EXPECT_GT(ltr_stats.stream_value_gate_fallback_dependent_ltr, 0u);
  EXPECT_EQ(ltr_stats.stream_value_gate_skips, 0u);
}

// Counter contract on a fully gateable workload: with a standing free
// method keeping every binding relevant, the irrelevant-uncertain
// residual is empty, so an unconstrained-position hit narrows through the
// semijoin chase (zero fallback_unconstrained) and an Adom-growing apply
// gates to {touched, newborn} (zero fallback_adom).
TEST_F(StreamTest, SemijoinAndAdomDeltaGateZeroFallbacks) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r0 = *schema->AddRelation("R0", {{"x", d}, {"y", d}});
  RelationId s0 = *schema->AddRelation("S0", {{"x", d}, {"y", d}});
  AccessMethodSet acs(schema.get());
  // The free R0 method keeps one access pending forever: with the S0 band
  // below, its hypothetical response completes every binding's chain, so
  // every binding stays relevant until it turns certain.
  AccessMethodId m_free = *acs.Add("r0_free", r0, {}, /*dependent=*/false);
  AccessMethodId m0 = *acs.Add("r0", r0, {0}, /*dependent=*/true);
  AccessMethodId ms0 = *acs.Add("s0", s0, {0}, /*dependent=*/true);
  (void)m_free;

  // Q(X) :- R0(X, Y), S0(Y, Z).
  ConjunctiveQuery q;
  VarId x = q.AddVar("X", d);
  VarId y = q.AddVar("Y", d);
  VarId z = q.AddVar("Z", d);
  q.atoms.push_back(Atom{r0, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{s0, {Term::MakeVar(y), Term::MakeVar(z)}});
  q.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  std::vector<Value> vals;
  Configuration conf(schema.get());
  for (int i = 0; i < 4; ++i) {
    vals.push_back(schema->InternConstant("v" + std::to_string(i)));
    conf.AddSeedConstant(vals.back(), d);
  }
  // The S0 band: S0(v0,v1), S0(v1,v2), S0(v2,v3).
  for (int i = 0; i + 1 < 4; ++i) {
    conf.AddFact(Fact(s0, {vals[i], vals[i + 1]}));
  }

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamOptions sopts;  // IR-only: semijoin + per-domain Adom active
  StreamId sid = *registry.Register(uq, sopts);

  // Precondition of the zero-fallback contract: no binding is
  // irrelevant-uncertain.
  for (const BindingView& b : registry.Snapshot(sid).bindings) {
    ASSERT_TRUE(b.certain || b.relevant) << "workload is not gateable";
  }

  // Slot hit: R0(v0, v3) marks only the v0 binding (kept uncertain —
  // S0(v3, _) is missing) and seeds the chase's fact index.
  ASSERT_TRUE(engine
                  .ApplyResponse(Access{m0, {vals[0]}},
                                 {Fact(r0, {vals[0], vals[3]})})
                  .ok());
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "slot hit");

  // Unconstrained-position hit: S0(v3, v1) lands on an atom with no head
  // variable. The chase follows Y=v3 into R0's fact index, finds
  // R0(v0, v3), and bounds slot X to {v0}: exactly the v0 binding is
  // rechecked (it flips certain), everything else gate-restamps.
  EngineStats before = engine.stats();
  ASSERT_TRUE(engine
                  .ApplyResponse(Access{ms0, {vals[3]}},
                                 {Fact(s0, {vals[3], vals[1]})})
                  .ok());
  EngineStats after = engine.stats();
  EXPECT_GE(after.stream_value_gate_semijoin - before.stream_value_gate_semijoin,
            1u);
  EXPECT_EQ(after.stream_value_gate_fallback_unconstrained,
            before.stream_value_gate_fallback_unconstrained);
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "semijoin hit");
  EXPECT_TRUE(registry.Snapshot(sid).bindings[0].certain);

  // Adom-growing apply: the delta-gated wave evaluates the newborn
  // binding and the slot-touched one; relevant untouched bindings
  // restamp across the per-domain version bracket — zero fallback_adom.
  before = after;
  Value grown = schema->InternConstant("grown");
  ASSERT_TRUE(engine
                  .ApplyResponse(Access{m0, {vals[1]}},
                                 {Fact(r0, {vals[1], grown})})
                  .ok());
  after = engine.stats();
  EXPECT_GE(after.stream_value_gate_newborn - before.stream_value_gate_newborn,
            1u);
  EXPECT_EQ(after.stream_value_gate_fallback_adom,
            before.stream_value_gate_fallback_adom);
  ExpectStreamParity(engine, registry, sid, uq, sopts, acs, "adom delta");

  // Whole-run contract: both fallback classes stayed at zero while the
  // gate did real work.
  EXPECT_EQ(after.stream_value_gate_fallback_unconstrained, 0u);
  EXPECT_EQ(after.stream_value_gate_fallback_adom, 0u);
  EXPECT_GT(after.stream_value_gate_skips, 0u);
}

// Triple parity (gated vs forced-full vs fresh one-shot deciders) under a
// random growth script over a two-domain schema: fresh D0 values mint
// bindings mid-stream through delta-gated Adom waves, while fresh D1
// values (foreign to everything the stream reads) must be O(1) skips
// under the per-domain Adom stamps.
TEST_F(StreamTest, DeltaGatedAdomTripleParityUnderRandomGrowth) {
  auto schema = std::make_shared<Schema>();
  DomainId d0 = schema->AddDomain("D0");
  DomainId d1 = schema->AddDomain("D1");
  RelationId r0 = *schema->AddRelation("R0", {{"x", d0}, {"y", d0}});
  RelationId s0 = *schema->AddRelation("S0", {{"x", d0}, {"y", d0}});
  RelationId t1 = *schema->AddRelation("T1", {{"x", d1}, {"y", d1}});
  AccessMethodSet acs(schema.get());
  AccessMethodId mr0 = *acs.Add("r0", r0, {0}, /*dependent=*/true);
  AccessMethodId ms0 = *acs.Add("s0", s0, {0}, /*dependent=*/true);
  AccessMethodId mt1 = *acs.Add("t1", t1, {}, /*dependent=*/true);

  // Q(X) :- R0(X, Y), S0(Y, Z): D0 is the only domain the stream reads
  // (head enumeration and the dependent methods' input positions).
  ConjunctiveQuery q;
  VarId x = q.AddVar("X", d0);
  VarId y = q.AddVar("Y", d0);
  VarId z = q.AddVar("Z", d0);
  q.atoms.push_back(Atom{r0, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{s0, {Term::MakeVar(y), Term::MakeVar(z)}});
  q.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  std::vector<Value> pool0, pool1;
  Configuration conf(schema.get());
  for (int i = 0; i < 4; ++i) {
    pool0.push_back(schema->InternConstant("a" + std::to_string(i)));
    conf.AddSeedConstant(pool0.back(), d0);
    pool1.push_back(schema->InternConstant("e" + std::to_string(i)));
    conf.AddSeedConstant(pool1.back(), d1);
  }

  RelevanceEngine gated_engine(*schema, acs, conf);
  RelevanceStreamRegistry gated(&gated_engine);
  StreamOptions gated_opts;  // IR-only
  StreamId gated_id = *gated.Register(uq, gated_opts);

  RelevanceEngine forced_engine(*schema, acs, conf);
  RelevanceStreamRegistry forced(&forced_engine);
  StreamOptions forced_opts;
  forced_opts.force_full_recheck = true;
  StreamId forced_id = *forced.Register(uq, forced_opts);

  auto expect_same = [&](const char* where) {
    StreamSnapshot a = gated.Snapshot(gated_id);
    StreamSnapshot b = forced.Snapshot(forced_id);
    ASSERT_EQ(a.bindings_tracked, b.bindings_tracked) << where;
    for (size_t i = 0; i < a.bindings.size(); ++i) {
      const BindingView& ba = a.bindings[i];
      const BindingView& bb = b.bindings[i];
      EXPECT_EQ(ba.has_fresh, bb.has_fresh) << where << " binding " << i;
      if (!ba.has_fresh) {
        EXPECT_EQ(ba.binding, bb.binding) << where << " binding " << i;
      }
      EXPECT_EQ(ba.certain, bb.certain) << where << " binding " << i;
      EXPECT_EQ(ba.relevant, bb.relevant) << where << " binding " << i;
    }
  };

  Rng rng(20260807);
  int minted0 = 0, minted1 = 0;
  const size_t bindings_at_start = gated.Snapshot(gated_id).bindings_tracked;
  for (int step = 0; step < 30; ++step) {
    Access access;
    std::vector<Fact> response;
    const double roll = rng.Chance(0.45) ? 0.0 : (rng.Chance(0.55) ? 1.0 : 2.0);
    if (roll == 0.0) {
      const Value& a = pool0[rng.Below(pool0.size())];
      Value b = rng.Chance(0.2)
                    ? schema->InternConstant("f0_" + std::to_string(minted0++))
                    : pool0[rng.Below(pool0.size())];
      access = Access{mr0, {a}};
      response.push_back(Fact(r0, {a, b}));
      if (std::find(pool0.begin(), pool0.end(), b) == pool0.end()) {
        pool0.push_back(b);
      }
    } else if (roll == 1.0) {
      const Value& a = pool0[rng.Below(pool0.size())];
      Value b = rng.Chance(0.2)
                    ? schema->InternConstant("f0_" + std::to_string(minted0++))
                    : pool0[rng.Below(pool0.size())];
      access = Access{ms0, {a}};
      response.push_back(Fact(s0, {a, b}));
      if (std::find(pool0.begin(), pool0.end(), b) == pool0.end()) {
        pool0.push_back(b);
      }
    } else {
      const Value& a = pool1[rng.Below(pool1.size())];
      Value b = rng.Chance(0.3)
                    ? schema->InternConstant("f1_" + std::to_string(minted1++))
                    : pool1[rng.Below(pool1.size())];
      access = Access{mt1, {}};
      response.push_back(Fact(t1, {a, b}));
      if (std::find(pool1.begin(), pool1.end(), b) == pool1.end()) {
        pool1.push_back(b);
      }
    }
    ASSERT_TRUE(gated_engine.ApplyResponse(access, response).ok());
    ASSERT_TRUE(forced_engine.ApplyResponse(access, response).ok());
    const std::string where = "step " + std::to_string(step);
    expect_same(where.c_str());
    ExpectStreamParity(gated_engine, gated, gated_id, uq, gated_opts, acs,
                       where.c_str());
  }
  // Fresh D0 values minted bindings mid-stream.
  EXPECT_GT(gated.Snapshot(gated_id).bindings_tracked, bindings_at_start);

  // Foreign-domain growth burst: fresh D1 values grow the active domain,
  // but D1 is invisible to the stream — per-domain Adom stamps make every
  // one of these an O(1) skip with zero rechecks on both registries.
  const uint64_t rechecks_before = gated_engine.stats().stream_rechecks;
  const uint64_t skips_before = gated_engine.stats().stream_skips;
  uint64_t live = 0;  // the skip counter bumps once per live binding
  for (const BindingView& b : gated.Snapshot(gated_id).bindings) {
    if (!b.certain && !b.unsat) ++live;
  }
  ASSERT_GT(live, 0u);
  for (int i = 0; i < 3; ++i) {
    Value g = schema->InternConstant("g1_" + std::to_string(i));
    std::vector<Fact> response = {Fact(t1, {pool1[0], g})};
    ASSERT_TRUE(gated_engine.ApplyResponse(Access{mt1, {}}, response).ok());
    ASSERT_TRUE(forced_engine.ApplyResponse(Access{mt1, {}}, response).ok());
  }
  EXPECT_EQ(gated_engine.stats().stream_rechecks, rechecks_before);
  EXPECT_EQ(gated_engine.stats().stream_skips, skips_before + 3 * live);
  expect_same("foreign growth");
  ExpectStreamParity(gated_engine, gated, gated_id, uq, gated_opts, acs,
                     "foreign growth");

  // The gate carried the run: strictly fewer rechecks than the twin.
  EXPECT_GT(gated_engine.stats().stream_value_gate_skips, 0u);
  EXPECT_LT(gated_engine.stats().stream_rechecks,
            forced_engine.stats().stream_rechecks);
}

// --- Delta protocol ----------------------------------------------------

TEST_F(StreamTest, PollDrainsOrderedEvents) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", {{"x", d}, {"y", d}});
  AccessMethodSet acs(schema.get());
  AccessMethodId mr = *acs.Add("r", r, {0}, /*dependent=*/true);

  ConjunctiveQuery q = *ParseCQ(*schema, "R(X, Y)");
  q.head = {0};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  Value a = schema->InternConstant("a");
  Configuration conf(schema.get());
  conf.AddSeedConstant(a, d);

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamId sid = *registry.Register(uq, StreamOptions{});

  // Registration: one kBindingAdded per binding (a + one fresh), plus the
  // initial relevance transitions, in strictly increasing sequence.
  StreamDelta delta = registry.Poll(sid);
  size_t added = 0;
  uint64_t last_seq = 0;
  for (const StreamEvent& e : delta.events) {
    EXPECT_GT(e.sequence, last_seq);
    last_seq = e.sequence;
    if (e.kind == StreamEventKind::kBindingAdded) ++added;
  }
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(delta.last_sequence, last_seq);
  EXPECT_TRUE(registry.Poll(sid).events.empty()) << "Poll must drain";

  // A response introducing a new value births a binding mid-stream.
  Value n = schema->InternConstant("n");
  ASSERT_TRUE(engine.ApplyResponse(Access{mr, {a}}, {Fact(r, {a, n})}).ok());
  delta = registry.Poll(sid);
  bool saw_new_binding = false;
  for (const StreamEvent& e : delta.events) {
    if (e.kind == StreamEventKind::kBindingAdded) {
      EXPECT_EQ(e.binding[0], n);
      saw_new_binding = true;
    }
  }
  EXPECT_TRUE(saw_new_binding);
}

// --- Shared streams: one wave per key, one cursor per subscription ----

// Per-binding (certain, relevant) state by head values.
using BindingStates = std::map<std::vector<Value>, std::pair<bool, bool>>;

// Replays a subscription's events from sequence 1: the state a subscriber
// rebuilds from the delta protocol alone.
BindingStates FoldEvents(const std::vector<StreamEvent>& events) {
  BindingStates out;
  for (const StreamEvent& e : events) {
    std::pair<bool, bool>& st = out[e.binding];
    switch (e.kind) {
      case StreamEventKind::kBindingAdded:
        break;
      case StreamEventKind::kBecameCertain:
        st.first = true;
        break;
      case StreamEventKind::kBecameRelevant:
        st.second = true;
        break;
      case StreamEventKind::kBecameIrrelevant:
        st.second = false;
        break;
    }
  }
  return out;
}

BindingStates StatesOf(const StreamSnapshot& snap) {
  BindingStates out;
  for (const BindingView& b : snap.bindings) {
    out[b.binding] = {b.certain, b.relevant};
  }
  return out;
}

// A snapshot keyed for comparison across registries: fresh constants are
// minted per stream, so fresh bindings compare by their flag.
std::map<std::string, std::pair<bool, bool>> SnapshotKey(
    const Schema& schema, const StreamSnapshot& snap) {
  std::map<std::string, std::pair<bool, bool>> out;
  for (const BindingView& b : snap.bindings) {
    std::string key;
    if (b.has_fresh) {
      key = "<fresh>";
    } else {
      for (const Value& v : b.binding) key += schema.ValueToString(v) + ",";
    }
    out[key] = {b.certain, b.relevant};
  }
  return out;
}

// Checks that `events` are numbered 1, 2, 3, ... without gaps.
void ExpectGapFreeFromOne(const std::vector<StreamEvent>& events,
                          const char* who) {
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].sequence, i + 1) << who << " event " << i;
  }
}

// A two-relation world: Q(X) :- R(X, Y), S(Y) over dependent methods, so
// bindings are born mid-stream and flip relevant, certain and irrelevant.
struct SharedWorld {
  std::shared_ptr<Schema> schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", {{"x", d}, {"y", d}});
  RelationId s = *schema->AddRelation("S", {{"x", d}});
  AccessMethodSet acs{schema.get()};
  AccessMethodId mr = *acs.Add("r", r, {0}, /*dependent=*/true);
  AccessMethodId ms = *acs.Add("s", s, {0}, /*dependent=*/true);
  Configuration conf{schema.get()};
  UnionQuery query;

  SharedWorld() {
    conf.AddSeedConstant(V("a"), d);
    conf.AddSeedConstant(V("b"), d);
    ConjunctiveQuery q;
    VarId x = q.AddVar("X", d);
    VarId y = q.AddVar("Y", d);
    q.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
    q.atoms.push_back(Atom{s, {Term::MakeVar(y)}});
    q.head = {x};
    query.disjuncts.push_back(q);
    EXPECT_TRUE(query.Validate(*schema).ok());
  }

  Value V(const char* name) { return schema->InternConstant(name); }

  /// The scripted responses, in order.
  std::vector<std::pair<Access, std::vector<Fact>>> Script() {
    return {
        {Access{mr, {V("a")}}, {Fact(r, {V("a"), V("n1")})}},
        {Access{ms, {V("n1")}}, {Fact(s, {V("n1")})}},
        {Access{mr, {V("b")}}, {Fact(r, {V("b"), V("b")})}},
        {Access{mr, {V("n1")}}, {Fact(r, {V("n1"), V("n2")})}},
        {Access{ms, {V("b")}}, {}},
        {Access{ms, {V("n2")}}, {Fact(s, {V("n2")})}},
        {Access{mr, {V("n2")}}, {Fact(r, {V("n2"), V("n3")})}},
    };
  }
};

TEST_F(StreamTest, SharedSubscriptionsReplayGapFreeFromOne) {
  SharedWorld w;
  auto script = w.Script();
  StreamOptions retained;
  retained.retain_events = true;
  StreamOptions draining;  // non-retaining: Poll acknowledges

  RelevanceEngine engine(*w.schema, w.acs, w.conf);
  RelevanceStreamRegistry registry(&engine);
  // Twin: one subscription per key, fed the same applies.
  RelevanceEngine twin(*w.schema, w.acs, w.conf);
  RelevanceStreamRegistry twin_registry(&twin);
  auto apply = [&](size_t i) {
    ASSERT_TRUE(engine.ApplyResponse(script[i].first, script[i].second).ok());
    ASSERT_TRUE(twin.ApplyResponse(script[i].first, script[i].second).ok());
  };

  // Subscriptions of each key join at three points: before any apply,
  // after applies, and after the first subscriber acknowledged past its
  // registration events.
  StreamId creator = *registry.Register(w.query, retained);
  StreamId drain_early = *registry.Register(w.query, draining);
  StreamId twin_retained = *twin_registry.Register(w.query, retained);
  StreamId twin_draining = *twin_registry.Register(w.query, draining);
  std::vector<StreamEvent> creator_seen;
  std::vector<StreamEvent> drained = registry.Poll(drain_early).events;
  apply(0);
  apply(1);
  StreamId after_applies = *registry.Register(w.query, retained);
  StreamId drain_late = *registry.Register(w.query, draining);
  apply(2);
  {
    StreamDelta d = registry.Poll(creator);
    creator_seen = d.events;
    ASSERT_TRUE(registry.Acknowledge(creator, d.last_sequence).ok());
    std::vector<StreamEvent> more = registry.Poll(drain_early).events;
    drained.insert(drained.end(), more.begin(), more.end());
  }
  StreamId after_ack = *registry.Register(w.query, retained);
  StreamId drain_after_ack = *registry.Register(w.query, draining);
  for (size_t i = 3; i < script.size(); ++i) apply(i);

  // Two keys, two streams, six cursors; joining ran no wave.
  EXPECT_EQ(registry.num_streams(), 2u);
  EXPECT_EQ(registry.num_subscriptions(), 6u);
  EXPECT_EQ(engine.stats().streams_registered, 2u);
  EXPECT_EQ(engine.stats().stream_subscriptions, 6u);
  EXPECT_EQ(engine.stats().stream_rechecks, twin.stats().stream_rechecks);
  EXPECT_EQ(engine.stats().stream_bindings, twin.stats().stream_bindings);

  struct Cursor {
    const char* who;
    StreamId sid;
    std::vector<StreamEvent> events;  ///< everything delivered, in order
    uint64_t last = 0;
  };
  std::vector<Cursor> cursors;
  {
    Result<StreamDelta> rest = registry.PollAfter(creator, 0);
    ASSERT_TRUE(rest.ok());
    creator_seen.insert(creator_seen.end(), rest->events.begin(),
                        rest->events.end());
    cursors.push_back({"creator", creator, creator_seen, rest->last_sequence});
  }
  for (auto [who, sid] : {std::pair<const char*, StreamId>{"after_applies",
                                                           after_applies},
                          {"after_ack", after_ack}}) {
    Result<StreamDelta> d = registry.PollAfter(sid, 0);
    ASSERT_TRUE(d.ok());
    cursors.push_back({who, sid, d->events, d->last_sequence});
  }
  {
    StreamDelta d = registry.Poll(drain_early);
    drained.insert(drained.end(), d.events.begin(), d.events.end());
    cursors.push_back({"drain_early", drain_early, drained, d.last_sequence});
  }
  for (auto [who, sid] : {std::pair<const char*, StreamId>{"drain_late",
                                                           drain_late},
                          {"drain_after_ack", drain_after_ack}}) {
    StreamDelta d = registry.Poll(sid);
    cursors.push_back({who, sid, d.events, d.last_sequence});
  }
  for (const Cursor& c : cursors) {
    SCOPED_TRACE(c.who);
    ExpectGapFreeFromOne(c.events, c.who);
    EXPECT_EQ(c.events.size(), c.last);
    const StreamSnapshot shared = registry.Snapshot(c.sid);
    EXPECT_EQ(FoldEvents(c.events), StatesOf(shared));
    const StreamId twin_sid =
        c.sid == creator || c.sid == after_applies || c.sid == after_ack
            ? twin_retained
            : twin_draining;
    EXPECT_EQ(SnapshotKey(*w.schema, shared),
              SnapshotKey(*w.schema, twin_registry.Snapshot(twin_sid)));
  }
  // A drained non-retaining cursor polls empty; a retained one keeps its
  // own backlog until it acknowledges.
  EXPECT_TRUE(registry.Poll(drain_late).events.empty());
  EXPECT_EQ(registry.RetainedCount(after_ack), cursors[2].events.size());
  EXPECT_EQ(registry.RetainedCount(drain_late), 0u);

  // A recovered registration with another fresh pool (as a directory
  // written before streams were shared holds) gets a stream of its own,
  // never merged; the next registration of the key joins the first one.
  StreamRecoveryInfo foreign;
  foreign.fresh_pool = {TypedValue{w.V("not_the_pool"), w.d}};
  Result<StreamId> own = registry.RegisterRecovered(w.query, retained, foreign);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_EQ(registry.num_streams(), 3u);
  EXPECT_TRUE(registry.DumpPersistState(*own)->fresh_pool ==
              foreign.fresh_pool);
  {
    Result<StreamDelta> d = registry.PollAfter(*own, 0);
    ASSERT_TRUE(d.ok());
    ExpectGapFreeFromOne(d->events, "own pool");
    EXPECT_EQ(FoldEvents(d->events), StatesOf(registry.Snapshot(*own)));
    EXPECT_EQ(SnapshotKey(*w.schema, registry.Snapshot(*own)),
              SnapshotKey(*w.schema, registry.Snapshot(creator)));
  }
  const StreamId later = *registry.Register(w.query, retained);
  EXPECT_EQ(registry.num_streams(), 3u);
  EXPECT_EQ(registry.num_subscriptions(), 8u);
  EXPECT_TRUE(registry.DumpPersistState(later)->fresh_pool ==
              registry.DumpPersistState(creator)->fresh_pool);
}

TEST_F(StreamTest, RetentionCapEvictsOnlyTheLaggingSubscription) {
  SharedWorld w;
  auto script = w.Script();
  StreamOptions opts;
  opts.retain_events = true;
  opts.retain_cap = 4;

  RelevanceEngine engine(*w.schema, w.acs, w.conf);
  RelevanceStreamRegistry registry(&engine);
  // Twin: the lagging subscriber as a private registration.
  RelevanceEngine twin(*w.schema, w.acs, w.conf);
  RelevanceStreamRegistry twin_registry(&twin);

  // The keeper registers first and drains after every apply; the laggard
  // joins after two applies (so its numbering is offset from the log's)
  // and never polls.
  StreamId keeper = *registry.Register(w.query, opts);
  uint64_t keeper_cursor = 0;
  std::vector<StreamEvent> keeper_seen;
  auto keeper_poll = [&] {
    Result<StreamDelta> d = registry.PollAfter(keeper, keeper_cursor);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    keeper_seen.insert(keeper_seen.end(), d->events.begin(), d->events.end());
    keeper_cursor = d->last_sequence;
    ASSERT_TRUE(registry.Acknowledge(keeper, keeper_cursor).ok());
  };
  keeper_poll();
  StreamId laggard = 0;
  StreamId twin_sid = 0;
  for (size_t i = 0; i < script.size(); ++i) {
    if (i == 2) {
      laggard = *registry.Register(w.query, opts);
      twin_sid = *twin_registry.Register(w.query, opts);
    }
    ASSERT_TRUE(engine.ApplyResponse(script[i].first, script[i].second).ok());
    ASSERT_TRUE(twin.ApplyResponse(script[i].first, script[i].second).ok());
    keeper_poll();
  }

  // The keeper never fell behind: gap-free from 1, nothing evicted.
  ExpectGapFreeFromOne(keeper_seen, "keeper");
  EXPECT_EQ(registry.EvictedThrough(keeper), 0u);
  EXPECT_EQ(FoldEvents(keeper_seen), StatesOf(registry.Snapshot(keeper)));

  // The laggard is evicted exactly where a private registration would be,
  // in its own numbering.
  const uint64_t horizon = registry.EvictedThrough(laggard);
  ASSERT_GT(horizon, 0u);
  EXPECT_EQ(horizon, twin_registry.EvictedThrough(twin_sid));
  EXPECT_EQ(registry.RetainedCount(laggard), opts.retain_cap);
  Result<StreamDelta> stale = registry.PollAfter(laggard, horizon - 1);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  Result<StreamDelta> resumed = registry.PollAfter(laggard, horizon);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  Result<StreamDelta> twin_resumed = twin_registry.PollAfter(twin_sid, horizon);
  ASSERT_TRUE(twin_resumed.ok());
  ASSERT_EQ(resumed->events.size(), twin_resumed->events.size());
  for (size_t i = 0; i < resumed->events.size(); ++i) {
    EXPECT_EQ(resumed->events[i].sequence, horizon + 1 + i);
    EXPECT_EQ(resumed->events[i].sequence, twin_resumed->events[i].sequence);
    EXPECT_EQ(resumed->events[i].kind, twin_resumed->events[i].kind);
  }
  EXPECT_EQ(resumed->evicted_through, horizon);
  EXPECT_GT(engine.stats().stream_retained_evicted, 0u);
}

TEST_F(StreamTest, BooleanStreamSettlesSticky) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", {{"x", d}, {"y", d}});
  AccessMethodSet acs(schema.get());
  AccessMethodId mr = *acs.Add("r", r, {0}, /*dependent=*/true);

  ConjunctiveQuery q = *ParseCQ(*schema, "R(X, Y)");  // Boolean ∃x,y R(x,y)
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  Value a = schema->InternConstant("a");
  Value b = schema->InternConstant("b");
  Configuration conf(schema.get());
  conf.AddSeedConstant(a, d);
  conf.AddSeedConstant(b, d);

  RelevanceEngine engine(*schema, acs, conf);
  RelevanceStreamRegistry registry(&engine);
  StreamId sid = *registry.Register(uq, StreamOptions{});
  EXPECT_EQ(registry.Snapshot(sid).bindings_tracked, 1u);
  EXPECT_TRUE(registry.AnyRelevant(sid));

  ASSERT_TRUE(engine.ApplyResponse(Access{mr, {a}}, {Fact(r, {a, b})}).ok());
  StreamSnapshot snap = registry.Snapshot(sid);
  EXPECT_EQ(snap.certain, 1u);
  EXPECT_FALSE(snap.any_relevant);
  bool saw_certain = false;
  for (const StreamEvent& e : registry.Poll(sid).events) {
    if (e.kind == StreamEventKind::kBecameCertain) saw_certain = true;
  }
  EXPECT_TRUE(saw_certain);

  // Settled bindings are monotone-final: later applies skip them without
  // building a stamp.
  EngineStats before = engine.stats();
  ASSERT_TRUE(engine.ApplyResponse(Access{mr, {b}}, {Fact(r, {b, a})}).ok());
  EngineStats after = engine.stats();
  EXPECT_EQ(after.stream_rechecks, before.stream_rechecks);
  EXPECT_GT(after.stream_sticky_skips, before.stream_sticky_skips);
}

// --- Stream-driven k-ary mediation -------------------------------------

TEST_F(StreamTest, KAryCrawlDrainsStreamAndCollectsCertainAnswers) {
  auto schema = std::make_shared<Schema>();
  DomainId d = schema->AddDomain("D");
  RelationId r = *schema->AddRelation("R", {{"x", d}, {"y", d}});
  RelationId s_rel = *schema->AddRelation("S", {{"x", d}});
  AccessMethodSet acs(schema.get());
  (void)*acs.Add("r", r, {0}, /*dependent=*/true);
  (void)*acs.Add("s", s_rel, {}, /*dependent=*/true);

  // Q(X) :- R(X, Y), S(Y).
  ConjunctiveQuery q;
  VarId x = q.AddVar("X", d);
  VarId y = q.AddVar("Y", d);
  q.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
  q.atoms.push_back(Atom{s_rel, {Term::MakeVar(y)}});
  q.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(q);
  ASSERT_TRUE(uq.Validate(*schema).ok());

  Configuration hidden(schema.get());
  ASSERT_TRUE(hidden.AddFactNamed("R", {"a", "b"}).ok());
  ASSERT_TRUE(hidden.AddFactNamed("R", {"b", "c"}).ok());
  ASSERT_TRUE(hidden.AddFactNamed("S", {"b"}).ok());

  Configuration initial(schema.get());
  initial.AddSeedConstant(schema->InternConstant("a"), d);
  initial.AddSeedConstant(schema->InternConstant("b"), d);

  DeepWebSource source(schema.get(), &acs, hidden);
  Mediator mediator(*schema, acs);
  MediatorOptions mopts;
  mopts.max_rounds = 64;
  Result<MediationOutcome> run =
      mediator.AnswerKAry(uq, initial, &source, mopts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->answered) << "stream must drain";

  // The certain answers reported by the stream equal direct evaluation on
  // the final configuration.
  std::set<std::vector<Value>> expect =
      CertainAnswers(uq, run->final_conf);
  std::set<std::vector<Value>> got(run->certain_answers.begin(),
                                   run->certain_answers.end());
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(expect.count({schema->InternConstant("a")}) > 0);
}

}  // namespace
}  // namespace rar
