// fanout: an in-memory SessionServer over loopback channels. Many
// subscriber sessions on the group queries, multiplexed over poller
// threads (poll, gap check, acknowledge); one applier thread sends only
// fact-landing applies, each hitting its group's streams. The pollers are
// paced by the applier (a fixed number of polls per apply), so every
// apply meets the same polling load. No TCP, no WAL.
#include <algorithm>
#include <memory>
#include <thread>

#include "probes.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "stream/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rar::RarClient;

/// Traced rounds span every apply but only one poll in this many: polls
/// are cheap and numerous, and their spans would dwarf the buffers.
constexpr size_t kPollSpanEvery = 16;

struct Subscriber {
  std::unique_ptr<rar::ClientChannel> channel;
  std::unique_ptr<RarClient> client;
  uint32_t handle = 0;
  uint64_t cursor = 0;  ///< last sequence seen and acknowledged
  size_t group = 0;
};

}  // namespace

RoundResult RunFanoutRound(const RoundInputs& in) {
  const size_t groups = static_cast<size_t>(in.Param("groups"));
  const size_t sessions = static_cast<size_t>(in.Param("sessions"));
  const size_t pollers = static_cast<size_t>(in.Param("pollers"));
  const size_t applies = static_cast<size_t>(in.Param("applies"));
  const size_t polls_per_apply =
      static_cast<size_t>(in.Param("polls_per_apply"));
  const size_t polls = polls_per_apply * applies;  // per poller
  const size_t scrape_every = static_cast<size_t>(in.Param("scrape_every"));
  RoundResult out;

  const uint64_t t0 = NowNs();
  GroupScenario gs = MakeGroupScenario(
      in.seed, static_cast<int>(groups), static_cast<int>(in.Param("values")),
      static_cast<int>(in.Param("initial_facts")));
  const rar::Scenario& s = gs.scenario;
  for (const auto& script : gs.applies) {
    if (script.size() < applies / groups + 1) {
      out.Fail("scenario has fewer fact-landing applies than the op count");
      return out;
    }
  }

  // Slot 0 is the applier, slots 1..pollers the pollers.
  const size_t slots = 1 + pollers;
  // Every apply is traced, and every kPollSpanEvery-th poll.
  Tracer tracer(in.traced, slots,
                4 * (applies + applies / std::max<size_t>(scrape_every, 1)) +
                    3 * polls / kPollSpanEvery + 64);
  ApplyProbe probe(&tracer, slots, in.traced ? applies : 0,
                   in.traced ? polls : 0);
  BracketListener first(&probe, /*first=*/true);
  BracketListener second(&probe, /*first=*/false);

  rar::EngineOptions eopts;
  eopts.num_threads = static_cast<int>(in.Param("engine_threads"));
  rar::RelevanceEngine engine(*s.schema, s.acs, s.conf, eopts);
  if (in.traced) engine.AddApplyListener(&first);
  auto registry = std::make_unique<rar::RelevanceStreamRegistry>(&engine);
  if (in.traced) engine.AddApplyListener(&second);
  auto server = std::make_unique<rar::SessionServer>(&engine, registry.get());
  // Untraced rounds use the program's loopback channel; traced ones its
  // copy with HandleFrame timed and spanned.
  auto make_channel = [&]() -> std::unique_ptr<rar::ClientChannel> {
    if (in.traced) {
      return std::make_unique<TimedLoopback>(server.get(), &probe);
    }
    return std::make_unique<rar::LoopbackChannel>(server.get());
  };

  // Admission and registration, striped over the poller threads (their
  // slots are unset here, so the probes record nothing yet).
  std::vector<Subscriber> subs(sessions);
  std::vector<Samples> register_lat;
  for (size_t p = 0; p < pollers; ++p) {
    register_lat.emplace_back(sessions / pollers + 1);
  }
  std::vector<std::string> errors(slots);
  {
    std::vector<std::thread> threads;
    for (size_t p = 0; p < pollers; ++p) {
      threads.emplace_back([&, p] {
        for (size_t i = p; i < sessions; i += pollers) {
          Subscriber& sub = subs[i];
          sub.group = i % groups;
          sub.channel = make_channel();
          sub.client = std::make_unique<RarClient>(sub.channel.get(),
                                                   s.schema.get(), &s.acs);
          if (rar::Status hello = sub.client->Hello(); !hello.ok()) {
            errors[p + 1] = "hello failed: " + hello.ToString();
            return;
          }
          const uint64_t r0 = NowNs();
          rar::Result<uint32_t> handle =
              sub.client->RegisterStream(gs.queries[sub.group]);
          register_lat[p].Add(NowNs() - r0);
          if (!handle.ok()) {
            errors[p + 1] =
                "registration failed: " + handle.status().ToString();
            return;
          }
          sub.handle = *handle;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::unique_ptr<rar::ClientChannel> applier_channel = make_channel();
  RarClient applier(applier_channel.get(), s.schema.get(), &s.acs);
  if (rar::Status hello = applier.Hello(); !hello.ok()) {
    errors[0] = "applier hello failed: " + hello.ToString();
  }
  for (const std::string& e : errors) {
    if (!e.empty()) {
      out.Fail(e);
      return out;
    }
  }

  // ------------------------------------------------------ measured phase
  Samples apply_lat(applies);
  Samples codec_lat(in.traced ? applies : 0);
  Samples scrape_lat(scrape_every == 0 ? 0 : applies / scrape_every + 1);
  std::vector<Samples> poll_lat;
  for (size_t p = 0; p < pollers; ++p) poll_lat.emplace_back(polls);
  std::vector<uint64_t> calls(slots, 0);
  std::vector<uint64_t> failures(slots, 0);
  uint64_t landed = 0;
  uint64_t applier_ns = 0;
  std::vector<uint64_t> poller_ns(pollers, 0);

  Pacer pacer(polls_per_apply);

  const rar::EngineStats before = engine.stats();
  const rar::ObsSnapshot obs_before = engine.obs().Snapshot();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t m0 = NowNs();
  {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      ThreadSlot() = 0;
      for (size_t i = 0; i < applies; ++i) {
        const ScriptedApply& a = gs.applies[i % groups][i / groups];
        pacer.Lead();
        const uint64_t span = tracer.Begin(0, "client.apply", i + 1);
        const uint64_t c0 = NowNs();
        rar::Result<rar::ApplyResult> r = applier.Apply(a.access, a.response);
        const uint64_t ns = NowNs() - c0;
        tracer.End(0, span);
        ++calls[0];
        if (!r.ok()) {
          ++failures[0];
          if (errors[0].empty()) errors[0] = "apply: " + r.status().ToString();
          continue;
        }
        if (r->facts_added == 0 && errors[0].empty()) {
          errors[0] = "a measured apply landed no fact";
        }
        landed += r->facts_added > 0 ? 1 : 0;
        apply_lat.Add(ns);
        if (in.traced) codec_lat.Add(ns - probe.slot(0).last_handle_ns);
        if (scrape_every != 0 && (i + 1) % scrape_every == 0) {
          const uint64_t q0 = NowNs();
          rar::Result<std::string> body = applier.Metrics();
          scrape_lat.Add(NowNs() - q0);
          ++calls[0];
          if (!body.ok()) ++failures[0];
        }
      }
      applier_ns = NowNs() - m0;
      ThreadSlot() = kNoSlot;
    });
    for (size_t p = 0; p < pollers; ++p) {
      threads.emplace_back([&, p] {
        ThreadSlot() = 1 + p;
        size_t idx = p;
        for (size_t k = 0; k < polls; ++k) {
          pacer.Follow(k);
          Subscriber& sub = subs[idx];
          const uint64_t span =
              k % kPollSpanEvery == 0
                  ? tracer.Begin(1 + p, "client.poll", k + 1)
                  : 0;
          const int got = PollAndAcknowledge(*sub.client, sub.handle,
                                             &sub.cursor, &poll_lat[p],
                                             &calls[1 + p], &errors[1 + p]);
          tracer.End(1 + p, span);
          if (got < 0) {
            ++failures[1 + p];
            break;
          }
          idx += pollers;
          if (idx >= sessions) idx = p;
        }
        poller_ns[p] = NowNs() - m0;
        ThreadSlot() = kNoSlot;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const uint64_t m1 = NowNs();
  const uint64_t cpu1 = ProcessCpuNs();
  const rar::EngineStats after = engine.stats();
  const rar::ObsSnapshot obs = engine.obs().Snapshot();
  for (const std::string& e : errors) {
    if (!e.empty()) out.Fail(e);
  }

  // -------------------------------------------------------- correctness
  // Drain every subscriber gap-free, then compare its snapshot with a
  // fresh engine + registry fed the same responses once.
  std::string drain_error;
  uint64_t drain_calls = 0;
  std::vector<std::map<std::string, std::pair<bool, bool>>> served(sessions);
  for (size_t i = 0; i < sessions && drain_error.empty(); ++i) {
    Subscriber& sub = subs[i];
    while (true) {
      const int got = PollAndAcknowledge(*sub.client, sub.handle, &sub.cursor,
                                         nullptr, &drain_calls, &drain_error);
      if (got <= 0) break;
    }
    rar::Result<rar::StreamSnapshot> snap = sub.client->Snapshot(sub.handle);
    if (!snap.ok()) {
      drain_error = "snapshot failed: " + snap.status().ToString();
      break;
    }
    served[i] = SnapshotKey(*s.schema, *snap);
  }
  if (!drain_error.empty()) out.Fail(drain_error);
  if (out.correct) {
    rar::RelevanceEngine mirror(*s.schema, s.acs, s.conf, eopts);
    rar::RelevanceStreamRegistry mirror_reg(&mirror);
    std::vector<rar::StreamId> sids;
    for (size_t g = 0; g < groups; ++g) {
      rar::Result<rar::StreamId> sid = mirror_reg.Register(gs.queries[g]);
      if (!sid.ok()) {
        out.Fail("mirror registration failed");
        break;
      }
      sids.push_back(*sid);
    }
    for (size_t i = 0; i < applies && out.correct; ++i) {
      const ScriptedApply& a = gs.applies[i % groups][i / groups];
      if (!mirror.ApplyResponse(a.access, a.response).ok()) {
        out.Fail("mirror apply failed");
      }
    }
    for (size_t i = 0; i < sessions && out.correct; ++i) {
      if (served[i] !=
          SnapshotKey(*s.schema, mirror_reg.Snapshot(sids[subs[i].group]))) {
        out.Fail("subscriber " + std::to_string(i) +
                 " snapshot differs from a fresh engine fed the same applies");
      }
    }
  }
  // Goodbyes before the server goes (untimed).
  for (Subscriber& sub : subs) (void)sub.client->Goodbye();
  (void)applier.Goodbye();

  // ------------------------------------------------------------ metrics
  std::vector<const Samples*> poll_parts;
  uint64_t poll_count = 0;
  for (const Samples& p : poll_lat) {
    poll_parts.push_back(&p);
    poll_count += p.values().size();
  }
  const Quantiles ap = Summarize({&apply_lat});
  const Quantiles pq = Summarize(poll_parts);
  uint64_t total_calls = 0;
  uint64_t total_failures = 0;
  for (size_t i = 0; i < slots; ++i) {
    total_calls += calls[i];
    total_failures += failures[i];
  }
  out.attempted = total_calls;
  out.failed = total_failures;
  const double ops =
      static_cast<double>(apply_lat.values().size() + poll_count);
  auto& m = out.metrics;
  m["setup_s"] = static_cast<double>(m0 - t0) / 1e9;
  m["apply_p50_us"] = ap.p50_us;
  m["report.apply_p90_us"] = ap.p90_us;
  m["poll_p50_us"] = pq.p50_us;
  m["cpu_us_per_op"] =
      ops == 0 ? 0 : static_cast<double>(cpu1 - cpu0) / 1e3 / ops;
  m["report.apply_samples"] = static_cast<double>(ap.count);
  m["report.poll_samples"] = static_cast<double>(pq.count);
  m["report.poll_p90_us"] = pq.p90_us;
  m["report.applies_per_s"] =
      applier_ns == 0 ? 0 : static_cast<double>(landed) * 1e9 / applier_ns;
  m["report.measured_s"] = static_cast<double>(m1 - m0) / 1e9;
  m["report.applier_s"] = static_cast<double>(applier_ns) / 1e9;
  m["report.poller_s"] =
      static_cast<double>(*std::max_element(poller_ns.begin(),
                                            poller_ns.end())) / 1e9;
  m["report.fail_ratio"] = FailRatio(total_calls, total_failures);

  if (in.traced) {
    std::vector<const Samples*> ha, hp, ea, wv;
    for (size_t i = 0; i < slots; ++i) {
      ha.push_back(&probe.slot(i).handle_apply);
      hp.push_back(&probe.slot(i).handle_poll);
      ea.push_back(&probe.slot(i).engine_apply);
      wv.push_back(&probe.slot(i).wave);
    }
    const Quantiles hq = Summarize(ha);
    const Quantiles hpq = Summarize(hp);
    const Quantiles eq = Summarize(ea);
    const Quantiles wq = Summarize(wv);
    std::vector<const Samples*> reg;
    for (const Samples& r : register_lat) reg.push_back(&r);
    m["server.handle_apply_us.p50"] = hq.p50_us;
    m["server.handle_apply_us.p90"] = hq.p90_us;
    m["server.handle_poll_us.p50"] = hpq.p50_us;
    m["server.handle_poll_us.p90"] = hpq.p90_us;
    m["server.codec_us.p50"] = Summarize({&codec_lat}).p50_us;
    m["server.metrics_us.p50"] = Summarize({&scrape_lat}).p50_us;
    m["stream.wave_us.p50"] = wq.p50_us;
    m["stream.wave_us.p90"] = wq.p90_us;
    m["stream.register_us.p50"] = Summarize(reg).p50_us;
    m["engine.apply_us.p50"] = eq.p50_us;
    m["engine.apply_us.p90"] = eq.p90_us;
    AddCounterMetrics(before, after, obs_before, obs, &out);
    AddSpanMetrics(tracer, &out);
    if (!in.trace_file.empty()) tracer.WriteTsv(in.trace_file);
  }

  if (in.traced) {
    engine.RemoveApplyListener(&second);
  }
  server.reset();
  registry.reset();
  if (in.traced) engine.RemoveApplyListener(&first);
  return out;
}

}  // namespace perfbench
