// Incremental stream maintenance vs per-apply full k-ary re-enumeration,
// plus the value-gated vs full hit-wave sweep.
//
// Sweep 1 (bench "stream"): the pre-stream architecture re-ran the
// Prop 2.2 instantiation loop from scratch after every response:
// |Adom ∪ fresh|^k binding evaluations per apply, no matter which relation
// the response touched. The stream registry instead rechecks only the
// bindings whose footprint stamps the response invalidated — on a
// multi-relation schema, an apply to a foreign relation skips the whole
// stream in O(1).
//
// Workload: schema R0(D0,D0) / S0(D0,D0) / R1(D1,D1); a standing unary
// stream Q(X) :- R0(X,Y), S0(Y,Z), S0(Z,W) over |adom(D0)| ∈ {100, 1k,
// 10k}; a mixed apply sequence of 60 responses, mostly to R1 (footprint-
// disjoint) with one footprint hit every 30 (alternating R0 / S0
// responses). Both modes maintain the same artifact — the per-binding
// certain/relevant map — and are compared for verdict parity against the
// per-binding reference loop at the end.
//
// Sweep 2 (bench "stream_gate"): footprint stamps still recheck every
// live binding when the stream's *own* footprint is hit. The value gate
// (stream/registry.h) intersects the landed facts against the per-binding
// head-value index instead, so a hit whose facts name one hot head value
// rechecks O(|delta| · fanout) bindings. Workload: same schema and query;
// a hit-heavy script of 40 R0 responses whose position-0 values follow a
// skewed (hot-set) distribution with repeated values and redundant
// replays, plus 2 S0 responses exercising the unconstrained-position
// fallback. The gated registry runs against a force_full_recheck twin on
// identical applies; per-binding verdict parity between the two is
// checked exhaustively at the end and the sweep fails (non-zero exit) on
// any mismatch or if the recheck ratio drops below 5x.
//
// Sweep 3 (bench "stream_gate_growth"): the Adom-growth stress. Same
// schema and query; 32 R0 hit responses where every 4th mints a fresh D0
// value — before per-domain delta gating each growth apply forced a full
// wave over every live binding. The gated registry runs against a
// force_full_recheck twin on identical applies; the sweep fails on any
// verdict mismatch, if the gated run reports a non-zero
// gate_fallback_adom (every binding here is relevant, so the
// irrelevant-uncertain residual must be empty), or if the recheck ratio
// drops below 8x.
//
// One JSON line per point (built with obs/export.h's JsonWriter — no
// hand-rolled string concatenation), to stdout and written to
// BENCH_stream.json (overwritten per run):
//
//   {"bench":"stream","adom":10000,"bindings":10001,"applies":60,
//    "hit_applies":2,"stream_ms":...,"full_ms":...,"speedup":...,
//    "rechecks":...,"skips":...,"parity":true,
//    "ir_decider_ns":{"count":...,"mean":...,"p50":...,"p90":...,
//    "p99":...,"max":...},"wave_ns":{...},"wave_width":{...}}
//   {"bench":"stream_gate","adom":10000,"bindings":10001,"hit_applies":42,
//    "gated_ms":...,"full_ms":...,"gated_rechecks":...,
//    "full_rechecks":...,"recheck_ratio":...,"value_gate_skips":...,
//    "gate_fallback_unconstrained":...,"gate_fallback_adom":...,
//    "semijoin_rechecks":...,"parity":true,
//    "ir_decider_ns":{...},"wave_ns":{...},"wave_width":{...}}
//   {"bench":"stream_gate_growth","adom":10000,"bindings":10009,
//    "hit_applies":32,"growth_applies":8,"gated_ms":...,"full_ms":...,
//    "gated_rechecks":...,"full_rechecks":...,"recheck_ratio":...,
//    "value_gate_skips":...,"gate_fallback_adom":0,
//    "gate_fallback_unconstrained":...,"semijoin_rechecks":...,
//    "newborn_rechecks":...,"parity":true,"ir_decider_ns":{...},
//    "wave_ns":{...},"wave_width":{...}}
//
// Usage: bench_stream [--max_adom=N]  (CI smoke passes 1000).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/export.h"
#include "query/eval.h"
#include "relational/overlay.h"
#include "relevance/head_instantiator.h"
#include "relevance/immediate.h"
#include "stream/registry.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(const Clock::time_point& t0, const Clock::time_point& t1) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
             .count() /
         1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rar;
  long max_adom = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max_adom=", 11) == 0) {
      max_adom = std::atol(argv[i] + 11);
    }
  }
  std::FILE* out = std::fopen("BENCH_stream.json", "w");

  for (long n : {100L, 1000L, 10000L}) {
    if (n > max_adom) continue;

    Schema schema;
    DomainId d0 = schema.AddDomain("D0");
    DomainId d1 = schema.AddDomain("D1");
    RelationId r0 = *schema.AddRelation("R0", {{"x", d0}, {"y", d0}});
    RelationId s0 = *schema.AddRelation("S0", {{"x", d0}, {"y", d0}});
    RelationId r1 = *schema.AddRelation("R1", {{"x", d1}, {"y", d1}});
    AccessMethodSet acs(&schema);
    // The free R0 method keeps one access pending forever (the standing
    // relevance witness); the dependent ones are what the driver performs.
    AccessMethodId m0_free = *acs.Add("r0_free", r0, {}, /*dependent=*/false);
    AccessMethodId m0_by0 = *acs.Add("r0_by0", r0, {0}, /*dependent=*/true);
    AccessMethodId ms0_by0 = *acs.Add("s0_by0", s0, {0}, /*dependent=*/true);
    AccessMethodId m1_free = *acs.Add("r1_free", r1, {}, /*dependent=*/false);
    (void)m1_free;

    Configuration initial(&schema);
    std::vector<Value> d0s, d1s;
    for (long i = 0; i < n; ++i) {
      d0s.push_back(schema.InternConstant("v" + std::to_string(i)));
      initial.AddSeedConstant(d0s.back(), d0);
    }
    for (long i = 0; i < 64; ++i) {
      d1s.push_back(schema.InternConstant("e" + std::to_string(i)));
      initial.AddSeedConstant(d1s.back(), d1);
    }
    // A band of S0 facts so the join below does real evaluation work per
    // binding (what each mode amortizes is the decider, not bookkeeping).
    for (long i = 0; i + 1 < n && i < n / 2; ++i) {
      initial.AddFact(Fact(s0, {d0s[i], d0s[i + 1]}));
    }

    // Q(X) :- R0(X, Y), S0(Y, Z), S0(Z, W): a per-binding join chain.
    ConjunctiveQuery q;
    VarId x = q.AddVar("X", d0);
    VarId y = q.AddVar("Y", d0);
    VarId z = q.AddVar("Z", d0);
    VarId w = q.AddVar("W", d0);
    q.atoms.push_back(Atom{r0, {Term::MakeVar(x), Term::MakeVar(y)}});
    q.atoms.push_back(Atom{s0, {Term::MakeVar(y), Term::MakeVar(z)}});
    q.atoms.push_back(Atom{s0, {Term::MakeVar(z), Term::MakeVar(w)}});
    q.head = {x};
    UnionQuery uq;
    uq.disjuncts.push_back(q);
    if (!uq.Validate(schema).ok()) return 1;

    // The apply script: 60 responses, one R0 hit every 20 (existing
    // values only: the binding set stays fixed, the win is footprint
    // narrowing, not delta enumeration).
    constexpr int kApplies = 60;
    constexpr int kHitPeriod = 30;
    struct Step {
      Access access;
      std::vector<Fact> response;
      bool hit;
    };
    std::vector<Step> script;
    int hits = 0;
    for (int i = 0; i < kApplies; ++i) {
      if ((i + 1) % kHitPeriod == 0) {
        const Value& a = d0s[(2 * hits) % n];
        const Value& b = d0s[(2 * hits + 1) % n];
        if (hits % 2 == 0) {
          script.push_back(
              {Access{m0_by0, {a}}, {Fact(r0, {a, b})}, /*hit=*/true});
        } else {
          script.push_back(
              {Access{ms0_by0, {a}}, {Fact(s0, {a, b})}, /*hit=*/true});
        }
        ++hits;
      } else {
        const Value& a = d1s[i % d1s.size()];
        const Value& b = d1s[(i * 7 + 1) % d1s.size()];
        script.push_back(
            {Access{m1_free, {}}, {Fact(r1, {a, b})}, /*hit=*/false});
      }
    }

    // --- Incremental: standing stream, apply-driven maintenance --------
    RelevanceEngine engine(schema, acs, initial);
    RelevanceStreamRegistry registry(&engine);
    StreamOptions sopts;  // IR-only
    auto sid = registry.Register(uq, sopts);
    if (!sid.ok()) {
      std::fprintf(stderr, "register: %s\n", sid.status().ToString().c_str());
      return 1;
    }
    const EngineStats at_start = engine.stats();

    Clock::time_point t0 = Clock::now();
    for (const Step& step : script) {
      if (!engine.ApplyResponse(step.access, step.response).ok()) return 1;
    }
    Clock::time_point t1 = Clock::now();
    const double stream_ms = MsBetween(t0, t1);
    EngineStats st = engine.stats();
    const uint64_t rechecks = st.stream_rechecks - at_start.stream_rechecks;
    const uint64_t skips = st.stream_skips - at_start.stream_skips;

    // --- Baseline: full k-ary re-enumeration after every apply ---------
    // Maintains the same per-binding map by re-running the Prop 2.2 loop
    // (certainty + one IR probe against the standing free access) over
    // every binding, every apply.
    HeadInstantiator inst(schema, uq);
    if (!inst.status().ok()) return 1;
    Configuration mirror = initial;
    OverlayConfiguration seeded(&mirror);
    inst.SeedInto(&seeded);
    HeadCandidates cands = inst.CollectCandidates(mirror);
    const Access standing{m0_free, {}};
    std::vector<char> full_certain, full_relevant;

    t0 = Clock::now();
    for (const Step& step : script) {
      for (const Fact& f : step.response) mirror.AddFact(f);
      full_certain.clear();
      full_relevant.clear();
      inst.ForEachBinding(cands, [&](const std::vector<Value>& slots) {
        UnionQuery q_b = inst.Instantiate(slots);
        const bool certain = EvalBool(q_b, seeded);
        const bool relevant =
            !certain && IsImmediatelyRelevant(seeded, acs, standing, q_b);
        full_certain.push_back(certain ? 1 : 0);
        full_relevant.push_back(relevant ? 1 : 0);
        return false;
      });
    }
    t1 = Clock::now();
    const double full_ms = MsBetween(t0, t1);

    // --- Parity: stream state == the reference per-binding loop --------
    StreamSnapshot snap = registry.Snapshot(*sid);
    bool parity = snap.bindings_tracked == full_certain.size();
    for (size_t i = 0; parity && i < snap.bindings.size(); ++i) {
      parity = snap.bindings[i].certain == (full_certain[i] != 0) &&
               snap.bindings[i].relevant == (full_relevant[i] != 0);
    }
    if (!parity) {
      std::fprintf(stderr, "verdict parity failure at adom=%ld\n", n);
      return 1;
    }

    const ObsSnapshot obs = engine.obs().Snapshot();
    JsonWriter jw;
    jw.BeginObject()
        .Field("bench", "stream")
        .Field("adom", n)
        .Field("bindings", static_cast<uint64_t>(snap.bindings_tracked))
        .Field("applies", kApplies)
        .Field("hit_applies", hits)
        .Field("stream_ms", stream_ms)
        .Field("full_ms", full_ms)
        .Field("speedup", full_ms / stream_ms)
        .Field("rechecks", rechecks)
        .Field("skips", skips)
        .Field("parity", true);
    jw.Key("ir_decider_ns");
    AppendHistogramJson(&jw, obs.ir_decider_ns);
    jw.Key("wave_ns");
    AppendHistogramJson(&jw, obs.wave_ns);
    jw.Key("wave_width");
    AppendHistogramJson(&jw, obs.wave_width);
    jw.EndObject();
    std::printf("%s\n", jw.str().c_str());
    std::fflush(stdout);
    if (out != nullptr) std::fprintf(out, "%s\n", jw.str().c_str());
  }

  // --- Sweep 2: value-gated vs full hit waves --------------------------
  for (long n : {100L, 1000L, 10000L}) {
    if (n > max_adom) continue;

    Schema schema;
    DomainId d0 = schema.AddDomain("D0");
    RelationId r0 = *schema.AddRelation("R0", {{"x", d0}, {"y", d0}});
    RelationId s0 = *schema.AddRelation("S0", {{"x", d0}, {"y", d0}});
    AccessMethodSet acs(&schema);
    AccessMethodId m0_free = *acs.Add("r0_free", r0, {}, /*dependent=*/false);
    AccessMethodId m0_by0 = *acs.Add("r0_by0", r0, {0}, /*dependent=*/true);
    AccessMethodId ms0_by0 = *acs.Add("s0_by0", s0, {0}, /*dependent=*/true);
    (void)m0_free;

    Configuration initial(&schema);
    std::vector<Value> d0s;
    for (long i = 0; i < n; ++i) {
      d0s.push_back(schema.InternConstant("v" + std::to_string(i)));
      initial.AddSeedConstant(d0s.back(), d0);
    }
    for (long i = 0; i + 1 < n && i < n / 2; ++i) {
      initial.AddFact(Fact(s0, {d0s[i], d0s[i + 1]}));
    }

    ConjunctiveQuery q;
    VarId x = q.AddVar("X", d0);
    VarId y = q.AddVar("Y", d0);
    VarId z = q.AddVar("Z", d0);
    VarId w = q.AddVar("W", d0);
    q.atoms.push_back(Atom{r0, {Term::MakeVar(x), Term::MakeVar(y)}});
    q.atoms.push_back(Atom{s0, {Term::MakeVar(y), Term::MakeVar(z)}});
    q.atoms.push_back(Atom{s0, {Term::MakeVar(z), Term::MakeVar(w)}});
    q.head = {x};
    UnionQuery uq;
    uq.disjuncts.push_back(q);
    if (!uq.Validate(schema).ok()) return 1;

    // Hit-heavy script: 40 R0 responses whose head (position-0) values
    // are drawn from a hot set of 8 (skewed, with repeats and redundant
    // replays — existing values only, so the binding set stays fixed),
    // plus 2 S0 responses (no head position: unconstrained fallback).
    struct Step {
      Access access;
      std::vector<Fact> response;
    };
    constexpr int kHits = 40;
    std::vector<Step> script;
    for (int i = 0; i < kHits; ++i) {
      const Value& a = d0s[(i * i) % 8];  // hot head values, repeated
      const Value& b = d0s[(i * 13 + 1) % n];
      script.push_back({Access{m0_by0, {a}}, {Fact(r0, {a, b})}});
      if (i % 10 == 9) script.push_back(script.back());  // redundant replay
    }
    script.push_back({Access{ms0_by0, {d0s[0]}}, {Fact(s0, {d0s[0], d0s[2]})}});
    script.push_back({Access{ms0_by0, {d0s[2]}}, {Fact(s0, {d0s[2], d0s[0]})}});

    auto run_mode = [&](bool force_full, double* ms, uint64_t* rechecks,
                        EngineStats* st_out, StreamSnapshot* snap,
                        ObsSnapshot* obs) -> bool {
      RelevanceEngine engine(schema, acs, initial);
      RelevanceStreamRegistry registry(&engine);
      StreamOptions sopts;  // IR-only
      sopts.force_full_recheck = force_full;
      auto sid = registry.Register(uq, sopts);
      if (!sid.ok()) return false;
      const EngineStats at_start = engine.stats();
      Clock::time_point a0 = Clock::now();
      for (const Step& step : script) {
        if (!engine.ApplyResponse(step.access, step.response).ok()) {
          return false;
        }
      }
      Clock::time_point a1 = Clock::now();
      *ms = MsBetween(a0, a1);
      *st_out = engine.stats();
      *rechecks = st_out->stream_rechecks - at_start.stream_rechecks;
      *snap = registry.Snapshot(*sid);
      *obs = engine.obs().Snapshot();
      return true;
    };

    double gated_ms = 0, full_ms2 = 0;
    uint64_t gated_rechecks = 0, full_rechecks = 0;
    EngineStats gated_st, full_st;
    StreamSnapshot gated_snap, full_snap;
    ObsSnapshot gated_obs, full_obs;
    if (!run_mode(false, &gated_ms, &gated_rechecks, &gated_st, &gated_snap,
                  &gated_obs) ||
        !run_mode(true, &full_ms2, &full_rechecks, &full_st, &full_snap,
                  &full_obs)) {
      std::fprintf(stderr, "gate sweep failed to run at adom=%ld\n", n);
      return 1;
    }

    // Exhaustive per-binding parity between the gated and forced twins
    // (fresh-constant bindings compare positionally: each registry mints
    // its own c_k pool).
    bool parity = gated_snap.bindings_tracked == full_snap.bindings_tracked;
    for (size_t i = 0; parity && i < gated_snap.bindings.size(); ++i) {
      const BindingView& ga = gated_snap.bindings[i];
      const BindingView& fa = full_snap.bindings[i];
      parity = ga.certain == fa.certain && ga.relevant == fa.relevant &&
               ga.has_fresh == fa.has_fresh &&
               (ga.has_fresh || ga.binding == fa.binding);
    }
    if (!parity) {
      std::fprintf(stderr, "value-gate parity failure at adom=%ld\n", n);
      return 1;
    }
    const double ratio = gated_rechecks == 0
                             ? static_cast<double>(full_rechecks)
                             : static_cast<double>(full_rechecks) /
                                   static_cast<double>(gated_rechecks);
    if (ratio < 5.0) {
      std::fprintf(stderr,
                   "value gate under 5x at adom=%ld: %llu vs %llu rechecks\n",
                   n, static_cast<unsigned long long>(gated_rechecks),
                   static_cast<unsigned long long>(full_rechecks));
      return 1;
    }

    JsonWriter jw;
    jw.BeginObject()
        .Field("bench", "stream_gate")
        .Field("adom", n)
        .Field("bindings", static_cast<uint64_t>(gated_snap.bindings_tracked))
        .Field("hit_applies", static_cast<uint64_t>(script.size()))
        .Field("gated_ms", gated_ms)
        .Field("full_ms", full_ms2)
        .Field("gated_rechecks", gated_rechecks)
        .Field("full_rechecks", full_rechecks)
        .Field("recheck_ratio", ratio)
        .Field("value_gate_skips", gated_st.stream_value_gate_skips)
        .Field("gate_fallback_unconstrained",
               gated_st.stream_value_gate_fallback_unconstrained)
        .Field("gate_fallback_adom", gated_st.stream_value_gate_fallback_adom)
        .Field("semijoin_rechecks", gated_st.stream_value_gate_semijoin)
        .Field("parity", true);
    jw.Key("ir_decider_ns");
    AppendHistogramJson(&jw, gated_obs.ir_decider_ns);
    jw.Key("wave_ns");
    AppendHistogramJson(&jw, gated_obs.wave_ns);
    jw.Key("wave_width");
    AppendHistogramJson(&jw, gated_obs.wave_width);
    jw.EndObject();
    std::printf("%s\n", jw.str().c_str());
    std::fflush(stdout);
    if (out != nullptr) std::fprintf(out, "%s\n", jw.str().c_str());
  }

  // --- Sweep 3: delta-gated vs full Adom growth waves ------------------
  for (long n : {100L, 1000L, 10000L}) {
    if (n > max_adom) continue;

    Schema schema;
    DomainId d0 = schema.AddDomain("D0");
    RelationId r0 = *schema.AddRelation("R0", {{"x", d0}, {"y", d0}});
    RelationId s0 = *schema.AddRelation("S0", {{"x", d0}, {"y", d0}});
    AccessMethodSet acs(&schema);
    AccessMethodId m0_free = *acs.Add("r0_free", r0, {}, /*dependent=*/false);
    AccessMethodId m0_by0 = *acs.Add("r0_by0", r0, {0}, /*dependent=*/true);
    AccessMethodId ms0_by0 = *acs.Add("s0_by0", s0, {0}, /*dependent=*/true);
    (void)m0_free;
    (void)ms0_by0;

    Configuration initial(&schema);
    std::vector<Value> d0s;
    for (long i = 0; i < n; ++i) {
      d0s.push_back(schema.InternConstant("v" + std::to_string(i)));
      initial.AddSeedConstant(d0s.back(), d0);
    }
    // The S0 band keeps every binding relevant (a free R0 response can
    // always complete the chain), so the gated run's irrelevant-uncertain
    // residual — gate_fallback_adom — must stay exactly zero.
    for (long i = 0; i + 1 < n && i < n / 2; ++i) {
      initial.AddFact(Fact(s0, {d0s[i], d0s[i + 1]}));
    }

    ConjunctiveQuery q;
    VarId x = q.AddVar("X", d0);
    VarId y = q.AddVar("Y", d0);
    VarId z = q.AddVar("Z", d0);
    VarId w = q.AddVar("W", d0);
    q.atoms.push_back(Atom{r0, {Term::MakeVar(x), Term::MakeVar(y)}});
    q.atoms.push_back(Atom{s0, {Term::MakeVar(y), Term::MakeVar(z)}});
    q.atoms.push_back(Atom{s0, {Term::MakeVar(z), Term::MakeVar(w)}});
    q.head = {x};
    UnionQuery uq;
    uq.disjuncts.push_back(q);
    if (!uq.Validate(schema).ok()) return 1;

    // Growth-heavy script: 32 R0 hit responses from the hot head set;
    // every 4th mints a brand-new D0 value in the fact's second position —
    // an Adom-growing apply that used to force a full wave over every
    // live binding.
    struct Step {
      Access access;
      std::vector<Fact> response;
    };
    constexpr int kHits = 32;
    std::vector<Step> script;
    int growth_applies = 0;
    for (int i = 0; i < kHits; ++i) {
      const Value& a = d0s[(i * i) % 8];
      if (i % 4 == 3) {
        const Value g =
            schema.InternConstant("g" + std::to_string(n) + "_" +
                                  std::to_string(growth_applies));
        script.push_back({Access{m0_by0, {a}}, {Fact(r0, {a, g})}});
        ++growth_applies;
      } else {
        const Value& b = d0s[(i * 13 + 1) % n];
        script.push_back({Access{m0_by0, {a}}, {Fact(r0, {a, b})}});
      }
    }

    auto run_mode = [&](bool force_full, double* ms, uint64_t* rechecks,
                        EngineStats* st_out, StreamSnapshot* snap,
                        ObsSnapshot* obs) -> bool {
      RelevanceEngine engine(schema, acs, initial);
      RelevanceStreamRegistry registry(&engine);
      StreamOptions sopts;  // IR-only
      sopts.force_full_recheck = force_full;
      auto sid = registry.Register(uq, sopts);
      if (!sid.ok()) return false;
      const EngineStats at_start = engine.stats();
      Clock::time_point a0 = Clock::now();
      for (const Step& step : script) {
        if (!engine.ApplyResponse(step.access, step.response).ok()) {
          return false;
        }
      }
      Clock::time_point a1 = Clock::now();
      *ms = MsBetween(a0, a1);
      *st_out = engine.stats();
      *rechecks = st_out->stream_rechecks - at_start.stream_rechecks;
      *snap = registry.Snapshot(*sid);
      *obs = engine.obs().Snapshot();
      return true;
    };

    double gated_ms = 0, full_ms2 = 0;
    uint64_t gated_rechecks = 0, full_rechecks = 0;
    EngineStats gated_st, full_st;
    StreamSnapshot gated_snap, full_snap;
    ObsSnapshot gated_obs, full_obs;
    if (!run_mode(false, &gated_ms, &gated_rechecks, &gated_st, &gated_snap,
                  &gated_obs) ||
        !run_mode(true, &full_ms2, &full_rechecks, &full_st, &full_snap,
                  &full_obs)) {
      std::fprintf(stderr, "growth sweep failed to run at adom=%ld\n", n);
      return 1;
    }

    bool parity = gated_snap.bindings_tracked == full_snap.bindings_tracked;
    for (size_t i = 0; parity && i < gated_snap.bindings.size(); ++i) {
      const BindingView& ga = gated_snap.bindings[i];
      const BindingView& fa = full_snap.bindings[i];
      parity = ga.certain == fa.certain && ga.relevant == fa.relevant &&
               ga.has_fresh == fa.has_fresh &&
               (ga.has_fresh || ga.binding == fa.binding);
    }
    if (!parity) {
      std::fprintf(stderr, "growth parity failure at adom=%ld\n", n);
      return 1;
    }
    if (gated_st.stream_value_gate_fallback_adom != 0) {
      std::fprintf(
          stderr, "non-zero gate_fallback_adom at adom=%ld: %llu\n", n,
          static_cast<unsigned long long>(
              gated_st.stream_value_gate_fallback_adom));
      return 1;
    }
    const double ratio = gated_rechecks == 0
                             ? static_cast<double>(full_rechecks)
                             : static_cast<double>(full_rechecks) /
                                   static_cast<double>(gated_rechecks);
    if (ratio < 8.0) {
      std::fprintf(stderr,
                   "growth gate under 8x at adom=%ld: %llu vs %llu rechecks\n",
                   n, static_cast<unsigned long long>(gated_rechecks),
                   static_cast<unsigned long long>(full_rechecks));
      return 1;
    }

    JsonWriter jw;
    jw.BeginObject()
        .Field("bench", "stream_gate_growth")
        .Field("adom", n)
        .Field("bindings", static_cast<uint64_t>(gated_snap.bindings_tracked))
        .Field("hit_applies", static_cast<uint64_t>(script.size()))
        .Field("growth_applies", growth_applies)
        .Field("gated_ms", gated_ms)
        .Field("full_ms", full_ms2)
        .Field("gated_rechecks", gated_rechecks)
        .Field("full_rechecks", full_rechecks)
        .Field("recheck_ratio", ratio)
        .Field("value_gate_skips", gated_st.stream_value_gate_skips)
        .Field("gate_fallback_adom", gated_st.stream_value_gate_fallback_adom)
        .Field("gate_fallback_unconstrained",
               gated_st.stream_value_gate_fallback_unconstrained)
        .Field("semijoin_rechecks", gated_st.stream_value_gate_semijoin)
        .Field("newborn_rechecks", gated_st.stream_value_gate_newborn)
        .Field("parity", true);
    jw.Key("ir_decider_ns");
    AppendHistogramJson(&jw, gated_obs.ir_decider_ns);
    jw.Key("wave_ns");
    AppendHistogramJson(&jw, gated_obs.wave_ns);
    jw.Key("wave_width");
    AppendHistogramJson(&jw, gated_obs.wave_width);
    jw.EndObject();
    std::printf("%s\n", jw.str().c_str());
    std::fflush(stdout);
    if (out != nullptr) std::fprintf(out, "%s\n", jw.str().c_str());
  }
  if (out != nullptr) std::fclose(out);
  return 0;
}
