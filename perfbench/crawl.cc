// crawl: one driver thread drains a standing k-ary stream per query. Each
// stream tracks immediate relevance with long-term fallback under
// dependent methods; every step reads the streams' relevant bindings,
// performs one witness access against a DeepWebSource, applies the
// response and polls every stream's events, until no binding is
// relevant. Responses bring items and
// sellers new to the active domain. No server, no WAL: the deciders, the
// decision cache and the recheck waves do the work.
#include <limits>
#include <set>

#include "probes.h"
#include "query/eval.h"
#include "sim/deep_web.h"
#include "stream/registry.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rar::Atom;
using rar::Term;
using rar::Value;

/// A marketplace behind dependent methods: Listing(item, seller) by item,
/// Vetted(seller) by seller, Supplies(seller, item) by seller. Some items
/// are known up front; the rest are reached through Supplies.
struct Marketplace {
  rar::Scenario scenario;
  rar::Configuration hidden;
  std::vector<rar::UnionQuery> queries;
};

Marketplace MakeMarketplace(uint64_t seed, int num_queries, int num_items,
                            int num_sellers, int seed_items) {
  Marketplace mp;
  rar::Scenario& s = mp.scenario;
  s.schema = std::make_shared<rar::Schema>();
  rar::Schema& schema = *s.schema;
  s.acs = rar::AccessMethodSet(s.schema.get());
  const rar::DomainId item = schema.AddDomain("Item");
  const rar::DomainId seller = schema.AddDomain("Seller");
  const rar::RelationId listing =
      *schema.AddRelation("Listing", {{"item", item}, {"seller", seller}});
  const rar::RelationId vetted =
      *schema.AddRelation("Vetted", {{"seller", seller}});
  const rar::RelationId supplies =
      *schema.AddRelation("Supplies", {{"seller", seller}, {"item", item}});
  (void)*s.acs.Add("listing_by_item", listing, {0}, /*dependent=*/true);
  (void)*s.acs.Add("vetted_check", vetted, {0}, /*dependent=*/true);
  (void)*s.acs.Add("supplies_by_seller", supplies, {0}, /*dependent=*/true);

  rar::Rng rng(seed * 0x2545f4914f6cdd1dull + 3);
  std::vector<Value> items;
  std::vector<Value> sellers;
  for (int i = 0; i < num_items; ++i) {
    items.push_back(schema.InternConstant("item" + std::to_string(i)));
  }
  for (int i = 0; i < num_sellers; ++i) {
    sellers.push_back(schema.InternConstant("seller" + std::to_string(i)));
  }
  mp.hidden = rar::Configuration(s.schema.get());
  // The shape is fixed — two sellers per item, half the sellers vetted,
  // one supplier per discovered item — and the seed picks who: inputs
  // differ per seed while the work per crawl stays comparable.
  std::vector<std::vector<size_t>> sellers_of(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const size_t first = rng.Below(sellers.size());
    const size_t second =
        (first + 1 + rng.Below(sellers.size() - 1)) % sellers.size();
    for (size_t sl : {first, second}) {
      sellers_of[i].push_back(sl);
      mp.hidden.AddFact(rar::Fact(listing, {items[i], sellers[sl]}));
    }
    // Every item past the seeds is supplied by a seller of an earlier
    // item, so the whole catalogue is reachable from the seeds.
    if (i >= static_cast<size_t>(seed_items)) {
      const size_t from = rng.Below(i);
      const size_t sl = sellers_of[from][rng.Below(sellers_of[from].size())];
      mp.hidden.AddFact(rar::Fact(supplies, {sellers[sl], items[i]}));
    }
  }
  std::vector<size_t> order(sellers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  for (size_t i = 0; i < order.size() / 2; ++i) {
    mp.hidden.AddFact(rar::Fact(vetted, {sellers[order[i]]}));
  }

  // The crawler starts out knowing the seed items and their listings.
  s.conf = rar::Configuration(s.schema.get());
  for (int i = 0; i < seed_items && i < num_items; ++i) {
    s.conf.AddSeedConstant(items[i], item);
    for (size_t sl : sellers_of[i]) {
      s.conf.AddFact(rar::Fact(listing, {items[i], sellers[sl]}));
    }
  }

  // Q0(X) :- Listing(X, S), Vetted(S)      items with a vetted seller
  // Q1(S) :- Supplies(S, X), Listing(X, S)  sellers listing what they supply
  // Q2(X) :- Supplies(S, X), Vetted(S)     items a vetted seller supplies
  // Q3(S) :- Listing(X, S), Vetted(S)      vetted sellers with a listing
  for (int q = 0; q < num_queries; ++q) {
    rar::ConjunctiveQuery cq;
    const rar::VarId x = cq.AddVar("X", item);
    const rar::VarId sv = cq.AddVar("S", seller);
    const Term tx = Term::MakeVar(x);
    const Term ts = Term::MakeVar(sv);
    switch (q % 4) {
      case 0:
        cq.atoms.push_back(Atom{listing, {tx, ts}});
        cq.atoms.push_back(Atom{vetted, {ts}});
        cq.head = {x};
        break;
      case 1:
        cq.atoms.push_back(Atom{supplies, {ts, tx}});
        cq.atoms.push_back(Atom{listing, {tx, ts}});
        cq.head = {sv};
        break;
      case 2:
        cq.atoms.push_back(Atom{supplies, {ts, tx}});
        cq.atoms.push_back(Atom{vetted, {ts}});
        cq.head = {x};
        break;
      default:
        cq.atoms.push_back(Atom{listing, {tx, ts}});
        cq.atoms.push_back(Atom{vetted, {ts}});
        cq.head = {sv};
        break;
    }
    rar::UnionQuery uq;
    uq.disjuncts.push_back(std::move(cq));
    mp.queries.push_back(std::move(uq));
  }
  return mp;
}

}  // namespace

RoundResult RunCrawlRound(const RoundInputs& in) {
  const size_t max_steps = static_cast<size_t>(in.Param("max_steps"));
  RoundResult out;

  const uint64_t t0 = NowNs();
  Marketplace mp = MakeMarketplace(
      in.seed, static_cast<int>(in.Param("queries")),
      static_cast<int>(in.Param("items")),
      static_cast<int>(in.Param("sellers")),
      static_cast<int>(in.Param("seed_items")));
  const rar::Scenario& s = mp.scenario;
  const size_t nq = mp.queries.size();

  Tracer tracer(in.traced, 1, 8 * max_steps + 64);
  ApplyProbe probe(&tracer, 1, in.traced ? max_steps : 0, 0);
  BracketListener first(&probe, /*first=*/true);
  BracketListener second(&probe, /*first=*/false);
  ThreadSlot() = 0;

  rar::EngineOptions eopts;
  eopts.num_threads = static_cast<int>(in.Param("engine_threads"));
  rar::RelevanceEngine engine(*s.schema, s.acs, s.conf, eopts);
  if (in.traced) engine.AddApplyListener(&first);
  auto registry = std::make_unique<rar::RelevanceStreamRegistry>(&engine);
  if (in.traced) engine.AddApplyListener(&second);
  rar::DeepWebSource source(s.schema.get(), &s.acs, mp.hidden, in.seed);

  rar::StreamOptions sopts;
  sopts.use_immediate = true;
  sopts.use_long_term = true;
  // Waves run inline on the driver thread: one busy thread, and counts
  // that repeat exactly for one seed.
  sopts.parallel_threshold = std::numeric_limits<size_t>::max();
  Samples register_lat(nq);
  std::vector<rar::StreamId> sids;
  for (const rar::UnionQuery& q : mp.queries) {
    const uint64_t r0 = NowNs();
    rar::Result<rar::StreamId> sid = registry->Register(q, sopts);
    register_lat.Add(NowNs() - r0);
    if (!sid.ok()) {
      out.Fail("registration failed: " + sid.status().ToString());
      ThreadSlot() = kNoSlot;
      return out;
    }
    sids.push_back(*sid);
  }

  // Like a subscriber, the driver polls every stream's event delta after
  // each step; the registrations' own events are drained here.
  std::vector<uint64_t> last_sequence(nq, 0);
  auto poll_all = [&](Samples* latency) {
    for (size_t q = 0; q < nq && out.correct; ++q) {
      const uint64_t span = tracer.Begin(0, "stream.poll");
      const uint64_t p0 = NowNs();
      const rar::StreamDelta delta = registry->Poll(sids[q]);
      if (latency != nullptr) latency->Add(NowNs() - p0);
      tracer.End(0, span);
      for (const rar::StreamEvent& ev : delta.events) {
        if (ev.sequence != ++last_sequence[q]) {
          out.Fail("stream " + std::to_string(q) + " skipped a sequence");
          break;
        }
      }
    }
  };
  poll_all(nullptr);

  // ------------------------------------------------------ measured phase
  Samples apply_lat(max_steps);
  Samples poll_lat(max_steps * nq);
  Samples read_lat(max_steps * nq + nq);
  Samples execute_lat(in.traced ? max_steps : 0);
  size_t steps = 0;
  const rar::EngineStats before = engine.stats();
  const rar::ObsSnapshot obs_before = engine.obs().Snapshot();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t m0 = NowNs();
  while (out.correct) {
    const uint64_t step_span = tracer.Begin(0, "driver.step", steps + 1);
    bool chosen = false;
    rar::Access witness;
    for (size_t q = 0; q < nq && !chosen; ++q) {
      const uint64_t span = tracer.Begin(0, "stream.relevant_bindings");
      const uint64_t r0 = NowNs();
      std::vector<rar::BindingView> relevant =
          registry->RelevantBindings(sids[q]);
      read_lat.Add(NowNs() - r0);
      tracer.End(0, span);
      for (const rar::BindingView& b : relevant) {
        if (b.has_witness && !engine.WasPerformed(b.witness)) {
          witness = b.witness;
          chosen = true;
          break;
        }
      }
    }
    if (!chosen) {
      tracer.End(0, step_span);
      break;  // drained: no binding of any stream is relevant
    }
    if (steps == max_steps) {
      out.Fail("crawl did not drain within max_steps");
      tracer.End(0, step_span);
      break;
    }
    const uint64_t exec_span = tracer.Begin(0, "sim.execute");
    const uint64_t e0 = NowNs();
    rar::Result<std::vector<rar::Fact>> response =
        source.Execute(engine, witness);
    execute_lat.Add(NowNs() - e0);
    tracer.End(0, exec_span);
    if (!response.ok()) {
      out.Fail("source access failed: " + response.status().ToString());
      tracer.End(0, step_span);
      break;
    }
    if (in.traced) probe.EnterApply(steps + 1);
    const uint64_t a0 = NowNs();
    rar::Result<int> applied = engine.ApplyResponse(witness, *response);
    apply_lat.Add(NowNs() - a0);
    if (in.traced) probe.LeaveApply();
    if (!applied.ok()) {
      out.Fail("apply failed: " + applied.status().ToString());
    }
    poll_all(&poll_lat);
    tracer.End(0, step_span);
    ++steps;
  }
  const uint64_t m1 = NowNs();
  const uint64_t cpu1 = ProcessCpuNs();
  const rar::EngineStats after = engine.stats();
  const rar::ObsSnapshot obs_after = engine.obs().Snapshot();
  ThreadSlot() = kNoSlot;

  // -------------------------------------------------------- correctness
  // Each stream's certain answers must equal the query's certain answers
  // over the final configuration and over the hidden instance.
  size_t answers = 0;
  const rar::Configuration final_conf = engine.SnapshotConfig();
  for (size_t q = 0; q < nq && out.correct; ++q) {
    std::set<std::vector<Value>> streamed;
    for (const rar::BindingView& b : registry->Snapshot(sids[q]).bindings) {
      if (b.certain && !b.has_fresh) streamed.insert(b.binding);
    }
    answers += streamed.size();
    if (streamed != rar::CertainAnswers(mp.queries[q], final_conf)) {
      out.Fail("query " + std::to_string(q) +
               ": stream answers differ from the final configuration's");
    } else if (streamed != rar::CertainAnswers(mp.queries[q], mp.hidden)) {
      out.Fail("query " + std::to_string(q) +
               ": stream answers differ from the hidden instance's");
    }
  }
  if (answers == 0) out.Fail("the crawl found no answer");

  // ------------------------------------------------------------ metrics
  const Quantiles ap = Summarize({&apply_lat});
  const Quantiles pq = Summarize({&poll_lat});
  const Quantiles rq = Summarize({&read_lat});
  out.attempted = steps;
  out.failed = out.correct ? 0 : 1;
  auto& m = out.metrics;
  m["setup_s"] = static_cast<double>(m0 - t0) / 1e9;
  m["apply_p50_us"] = ap.p50_us;
  m["report.apply_p90_us"] = ap.p90_us;
  m["poll_p50_us"] = pq.p50_us;
  m["report.poll_p90_us"] = pq.p90_us;
  m["cpu_us_per_op"] =
      steps == 0 ? 0 : static_cast<double>(cpu1 - cpu0) / 1e3 / steps;
  m["report.answer_s"] = static_cast<double>(m1 - m0) / 1e9;
  m["report.accesses"] = static_cast<double>(steps);
  m["report.answers"] = static_cast<double>(answers);
  m["report.accesses_per_answer"] =
      answers == 0 ? 0 : static_cast<double>(steps) / answers;
  m["report.apply_samples"] = static_cast<double>(ap.count);
  m["report.poll_samples"] = static_cast<double>(pq.count);
  m["report.fail_ratio"] = FailRatio(out.attempted, out.failed);
  // Decider and recheck counts come in every round: they must repeat
  // exactly for one input set, and run.py checks the traced round of a
  // pair against the untraced one.
  m["relevance.ir_runs"] = static_cast<double>(after.uncached_ir_checks -
                                               before.uncached_ir_checks);
  m["relevance.ltr_runs"] = static_cast<double>(after.uncached_ltr_checks -
                                                before.uncached_ltr_checks);
  m["stream.rechecks"] =
      static_cast<double>(after.stream_rechecks - before.stream_rechecks);

  if (in.traced) {
    const Quantiles eq = Summarize({&probe.slot(0).engine_apply});
    const Quantiles wq = Summarize({&probe.slot(0).wave});
    m["engine.apply_us.p50"] = eq.p50_us;
    m["engine.apply_us.p90"] = eq.p90_us;
    m["stream.wave_us.p50"] = wq.p50_us;
    m["stream.wave_us.p90"] = wq.p90_us;
    m["stream.register_us.p50"] = Summarize({&register_lat}).p50_us;
    m["stream.relevant_bindings_us.p50"] = rq.p50_us;
    m["sim.execute_us.p50"] = Summarize({&execute_lat}).p50_us;
    AddCounterMetrics(before, after, obs_before, obs_after, &out);
    AddSpanMetrics(tracer, &out);
    if (!in.trace_file.empty()) tracer.WriteTsv(in.trace_file);
  }
  if (in.traced) engine.RemoveApplyListener(&second);
  registry.reset();
  if (in.traced) engine.RemoveApplyListener(&first);
  return out;
}

}  // namespace perfbench
