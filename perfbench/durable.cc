// durable: a SessionServer over a DurableSession behind TcpServer — the
// production path (TCP, frame codec, session and dedup, engine, WAL with
// group commit and auto-snapshots, stream waves). Set-up is a restart:
// an untimed prologue writes the directory, then the timed part recovers
// it, serves it over TCP, and the clients reconnect and resume their
// tokens. Appliers on disjoint groups send fact-landing applies with a
// retry policy; one more connection carries a subscriber session per
// group. The WAL is written to real files with tmpfs semantics: fsyncs
// are issued and counted but do not wait for the disk.
#include <filesystem>
#include <memory>
#include <thread>

#include "persist/durable.h"
#include "persist/io.h"
#include "probes.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Times every call through `inner` into `samples` (traced rounds only).
class TimedChannel : public rar::ClientChannel {
 public:
  TimedChannel(rar::ClientChannel* inner, Samples* samples)
      : inner_(inner), samples_(samples) {}

  rar::Result<rar::WireFrame> Call(rar::MessageType type,
                                   std::string_view payload,
                                   const rar::CallContext& ctx) override {
    const uint64_t t0 = NowNs();
    rar::Result<rar::WireFrame> r = inner_->Call(type, payload, ctx);
    samples_->Add(NowNs() - t0);
    return r;
  }

 private:
  rar::ClientChannel* inner_;
  Samples* samples_;
};

/// A real file whose Sync() returns at once, as fsync does on tmpfs.
class TmpfsFile : public rar::WritableFile {
 public:
  explicit TmpfsFile(std::unique_ptr<rar::WritableFile> inner)
      : inner_(std::move(inner)) {}
  rar::Status Append(const void* data, size_t n) override {
    return inner_->Append(data, n);
  }
  rar::Status Sync() override { return rar::Status::OK(); }
  rar::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<rar::WritableFile> inner_;
};

/// The WAL's filesystem with tmpfs semantics: every call reaches the real
/// files under the round's scratch directory, but file and directory
/// syncs return at once. The program still issues and counts every fsync;
/// only the shared virtual disk's flush latency stays out of the figures.
class TmpfsEnv : public rar::PersistEnv {
 public:
  rar::Result<std::unique_ptr<rar::WritableFile>> NewWritableFile(
      const std::string& path, bool append) override {
    auto file = base_->NewWritableFile(path, append);
    if (!file.ok()) return file.status();
    return {std::unique_ptr<rar::WritableFile>(
        new TmpfsFile(std::move(*file)))};
  }
  rar::Result<std::unique_ptr<rar::ReadableFile>> NewReadableFile(
      const std::string& path) override {
    return base_->NewReadableFile(path);
  }
  rar::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  rar::Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  rar::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  rar::Status RenameFile(const std::string& from,
                         const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  rar::Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  rar::Result<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  rar::Status SyncDir(const std::string& dir) override {
    (void)dir;
    return rar::Status::OK();
  }

 private:
  rar::PersistEnv* base_ = rar::GetPosixEnv();
};

}  // namespace

RoundResult RunDurableRound(const RoundInputs& in) {
  const size_t groups = static_cast<size_t>(in.Param("groups"));
  const size_t appliers = static_cast<size_t>(in.Param("appliers"));
  const size_t applies = static_cast<size_t>(in.Param("applies_per_applier"));
  const size_t polls_per_apply =
      static_cast<size_t>(in.Param("polls_per_apply"));
  const size_t polls = polls_per_apply * appliers * applies;
  const size_t prologue = static_cast<size_t>(in.Param("prologue_applies")) /
                          appliers;
  RoundResult out;

  GroupScenario gs = MakeGroupScenario(
      in.seed, static_cast<int>(groups), static_cast<int>(in.Param("values")),
      static_cast<int>(in.Param("initial_facts")));
  const rar::Schema& schema = *gs.scenario.schema;
  const rar::AccessMethodSet& acs = gs.scenario.acs;
  // Applier k owns the groups g with g % appliers == k and walks their
  // scripts round-robin: the prologue takes the first `prologue` applies,
  // the measured phase the next `applies`.
  std::vector<std::vector<const ScriptedApply*>> scripts(appliers);
  for (size_t k = 0; k < appliers; ++k) {
    std::vector<size_t> owned;
    for (size_t g = k; g < groups; g += appliers) owned.push_back(g);
    for (size_t i = 0; i < prologue + applies; ++i) {
      const auto& script = gs.applies[owned[i % owned.size()]];
      const size_t idx = i / owned.size();
      if (idx >= script.size()) {
        out.Fail("scenario has fewer fact-landing applies than the op count");
        return out;
      }
      scripts[k].push_back(&script[idx]);
    }
  }

  const std::string dir = in.scratch_dir + "/durable";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  TmpfsEnv env;
  rar::PersistOptions popts;
  popts.fsync_policy = rar::FsyncPolicy::kGroupCommit;
  popts.snapshot_every_records =
      static_cast<uint64_t>(in.Param("snapshot_every"));
  popts.env = &env;
  rar::EngineOptions eopts;
  eopts.num_threads = static_cast<int>(in.Param("engine_threads"));

  // ------------------------------------------- prologue (untimed) + crash
  std::vector<rar::SessionToken> applier_tokens(appliers);
  std::vector<rar::SessionToken> sub_tokens(groups);
  std::vector<uint32_t> sub_handles(groups);
  std::vector<uint64_t> sub_cursors(groups, 0);
  {
    auto opened = rar::DurableSession::Open(schema, acs, gs.scenario.conf,
                                            dir, popts, eopts);
    if (!opened.ok()) {
      out.Fail("prologue open: " + opened.status().ToString());
      return out;
    }
    auto server = std::make_unique<rar::SessionServer>(opened->get());
    rar::LoopbackChannel channel(server.get());
    std::string error;
    // The prologue's applies go through a separate loader session: a
    // resumed RarClient numbers its requests from 1 again, so ids the
    // applier sessions used before the crash would be answered from
    // their dedup windows instead of executing.
    rar::RarClient loader(&channel, &schema, &acs);
    if (!loader.Hello().ok()) error = "prologue hello failed";
    for (size_t k = 0; k < appliers && error.empty(); ++k) {
      rar::RarClient client(&channel, &schema, &acs);
      if (!client.Hello().ok()) error = "prologue hello failed";
      applier_tokens[k] = client.token();
      for (size_t i = 0; i < prologue && error.empty(); ++i) {
        const ScriptedApply& a = *scripts[k][i];
        if (!loader.Apply(a.access, a.response).ok()) {
          error = "prologue apply failed";
        }
      }
    }
    uint64_t calls = 0;
    for (size_t g = 0; g < groups && error.empty(); ++g) {
      rar::RarClient client(&channel, &schema, &acs);
      rar::Result<uint32_t> handle =
          client.Hello().ok() ? client.RegisterStream(gs.queries[g])
                              : rar::Result<uint32_t>(rar::Status::Internal(
                                    "prologue hello failed"));
      if (!handle.ok()) {
        error = "prologue registration: " + handle.status().ToString();
        break;
      }
      sub_tokens[g] = client.token();
      sub_handles[g] = *handle;
      while (PollAndAcknowledge(client, *handle, &sub_cursors[g], nullptr,
                                &calls, &error) > 0) {
      }
    }
    if (!error.empty()) {
      out.Fail(error);
      return out;
    }
    // Crash: no Goodbye, no drain, no flush.
    server.reset();
  }

  // ------------------------------------------------------ timed set-up
  const uint64_t t0 = NowNs();
  auto recovered = rar::DurableSession::Open(schema, acs, gs.scenario.conf,
                                             dir, popts, eopts);
  const uint64_t open_ns = NowNs() - t0;
  if (!recovered.ok()) {
    out.Fail("recovery: " + recovered.status().ToString());
    return out;
  }
  std::unique_ptr<rar::DurableSession> session = std::move(*recovered);
  const uint64_t replayed = session->recovery().replayed_records;
  auto server = std::make_unique<rar::SessionServer>(session.get());
  auto tcp = std::make_unique<rar::TcpServer>(server.get());
  rar::Result<uint16_t> port = tcp->Start(0);
  if (!port.ok()) {
    out.Fail("tcp start: " + port.status().ToString());
    return out;
  }

  // Connection k < appliers is applier k's; the last one carries the
  // subscriber sessions. Slots follow the connections.
  const size_t slots = appliers + 1;
  Tracer tracer(in.traced, slots, 2 * (applies + polls) + 64);
  std::vector<Samples> channel_lat;
  for (size_t c = 0; c < slots; ++c) {
    channel_lat.emplace_back(in.traced ? 2 * (applies + polls) : 0);
  }
  // Untraced rounds call the bare TCP channels; traced ones time each call.
  std::vector<std::unique_ptr<rar::TcpChannel>> conns;
  std::vector<std::unique_ptr<TimedChannel>> timed;
  std::vector<rar::ClientChannel*> channels;
  for (size_t c = 0; c < slots; ++c) {
    auto conn = rar::TcpChannel::Connect("127.0.0.1", *port);
    if (!conn.ok()) {
      out.Fail("connect: " + conn.status().ToString());
      return out;
    }
    conns.push_back(std::move(*conn));
    if (in.traced) {
      timed.push_back(
          std::make_unique<TimedChannel>(conns.back().get(), &channel_lat[c]));
      channels.push_back(timed.back().get());
    } else {
      channels.push_back(conns.back().get());
    }
  }
  auto retry_for = [&](uint64_t salt) {
    rar::RetryPolicy retry;
    retry.max_attempts = static_cast<uint32_t>(in.Param("retry_attempts"));
    retry.base_backoff_ms = 1;
    retry.max_backoff_ms = 20;
    retry.call_timeout_ms = 10000;
    retry.jitter_seed = in.seed * 7919 + salt;
    return retry;
  };
  std::vector<std::unique_ptr<rar::RarClient>> clients;  // appliers, then subs
  for (size_t k = 0; k < appliers + groups; ++k) {
    const bool applier = k < appliers;
    clients.push_back(std::make_unique<rar::RarClient>(
        channels[applier ? k : appliers], &schema, &acs, retry_for(k)));
    rar::Status resumed = clients.back()->Resume(
        applier ? applier_tokens[k] : sub_tokens[k - appliers]);
    if (!resumed.ok() || !clients.back()->resumed()) {
      out.Fail("resume failed after recovery");
      return out;
    }
  }

  // ------------------------------------------------------ measured phase
  std::vector<Samples> apply_lat;
  std::vector<std::vector<const ScriptedApply*>> acked(appliers);
  for (size_t k = 0; k < appliers; ++k) {
    apply_lat.emplace_back(applies);
    acked[k].reserve(applies);
  }
  Samples poll_lat(polls);
  std::vector<uint64_t> calls(slots, 0);
  std::vector<uint64_t> failures(slots, 0);
  std::vector<std::string> errors(slots);

  // The subscriber is paced by the appliers' progress.
  Pacer pacer(polls_per_apply);

  const rar::EngineStats before = session->engine().stats();
  const rar::ObsSnapshot obs_before = session->engine().obs().Snapshot();
  const uint64_t cpu0 = ProcessCpuNs();
  const uint64_t m0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (size_t k = 0; k < appliers; ++k) {
      threads.emplace_back([&, k] {
        rar::RarClient& client = *clients[k];
        for (size_t i = 0; i < applies; ++i) {
          const ScriptedApply& a = *scripts[k][prologue + i];
          pacer.Lead();
          const uint64_t span = tracer.Begin(k, "client.apply", i + 1);
          const uint64_t c0 = NowNs();
          rar::Result<rar::ApplyResult> r = client.Apply(a.access, a.response);
          const uint64_t ns = NowNs() - c0;
          tracer.End(k, span);
          ++calls[k];
          if (!r.ok()) {
            ++failures[k];
            if (errors[k].empty()) {
              errors[k] = "apply: " + r.status().ToString();
            }
            continue;
          }
          if (r->facts_added == 0 && errors[k].empty()) {
            errors[k] = "a measured apply landed no fact";
          }
          apply_lat[k].Add(ns);
          acked[k].push_back(&a);
        }
      });
    }
    threads.emplace_back([&] {
      const size_t slot = appliers;
      for (size_t j = 0; j < polls; ++j) {
        pacer.Follow(j);
        const size_t g = j % groups;
        const uint64_t span = tracer.Begin(slot, "client.poll", j + 1);
        const int got = PollAndAcknowledge(*clients[appliers + g],
                                           sub_handles[g], &sub_cursors[g],
                                           &poll_lat, &calls[slot],
                                           &errors[slot]);
        tracer.End(slot, span);
        if (got < 0) {
          ++failures[slot];
          break;
        }
      }
    });
    for (std::thread& t : threads) t.join();
  }
  const uint64_t m1 = NowNs();
  const uint64_t cpu1 = ProcessCpuNs();
  const rar::EngineStats after = session->engine().stats();
  const rar::ObsSnapshot obs_after = session->engine().obs().Snapshot();
  for (const std::string& e : errors) {
    if (!e.empty()) out.Fail(e);
  }

  // -------------------------------------------------------- correctness
  uint64_t ok_applies = 0;
  for (const auto& list : acked) ok_applies += list.size();
  // Exactly once: the engine ran each acknowledged apply once, however
  // many attempts the clients made.
  if (after.responses_applied - before.responses_applied != ok_applies) {
    out.Fail("engine applied " +
             std::to_string(after.responses_applied -
                            before.responses_applied) +
             " responses for " + std::to_string(ok_applies) +
             " acknowledged applies");
  }
  std::string drain_error;
  uint64_t drain_calls = 0;
  for (size_t g = 0; g < groups && drain_error.empty(); ++g) {
    while (PollAndAcknowledge(*clients[appliers + g], sub_handles[g],
                              &sub_cursors[g], nullptr, &drain_calls,
                              &drain_error) > 0) {
    }
  }
  if (!drain_error.empty()) out.Fail(drain_error);
  uint64_t client_calls = 0;
  uint64_t client_attempts = 0;
  uint64_t retried_out = 0;
  for (const auto& c : clients) {
    client_calls += c->calls_issued();
    client_attempts += c->attempts_issued();
    retried_out += c->retries_exhausted();
  }
  if (rar::Status flushed = session->Flush(); !flushed.ok()) {
    out.Fail("flush: " + flushed.ToString());
  }
  const rar::VersionVector want = session->engine().versions();
  clients.clear();
  timed.clear();
  conns.clear();
  tcp.reset();
  server.reset();
  session.reset();
  {
    auto reopened = rar::DurableSession::Open(schema, acs, gs.scenario.conf,
                                              dir, popts, eopts);
    if (!reopened.ok()) {
      out.Fail("reopen: " + reopened.status().ToString());
    } else if ((*reopened)->engine().versions() != want) {
      out.Fail("reopened VersionVector differs from the served one");
    } else {
      const rar::Configuration conf = (*reopened)->engine().SnapshotConfig();
      for (const auto& list : acked) {
        for (const ScriptedApply* a : list) {
          if (!conf.Contains(a->response[0])) {
            out.Fail("an acknowledged apply is missing after reopening");
            break;
          }
        }
      }
    }
  }
  std::filesystem::remove_all(dir, ec);

  // ------------------------------------------------------------ metrics
  std::vector<const Samples*> apply_parts;
  for (const Samples& s : apply_lat) apply_parts.push_back(&s);
  const Quantiles ap = Summarize(apply_parts);
  const Quantiles pq = Summarize({&poll_lat});
  // A call that ran out of retries came back failed, so `failures`
  // already counts it; refused calls (kRetryLater) surface the same way.
  uint64_t total_calls = 0;
  uint64_t total_failures = 0;
  for (size_t i = 0; i < slots; ++i) {
    total_calls += calls[i];
    total_failures += failures[i];
  }
  out.attempted = total_calls;
  out.failed = total_failures;
  const double ops =
      static_cast<double>(ap.count + pq.count);
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
  m["report.fail_ratio"] = FailRatio(out.attempted, out.failed);
  m["report.retried_out"] = static_cast<double>(retried_out);
  m["report.measured_s"] = static_cast<double>(m1 - m0) / 1e9;

  if (in.traced) {
    auto hist = [&](const rar::HistogramSnapshot& b,
                    const rar::HistogramSnapshot& a, double p) {
      return static_cast<double>(HistogramDelta(b, a).Percentile(p)) / 1e3;
    };
    m["server.handle_apply_us.p50"] =
        hist(obs_before.server_apply_ns, obs_after.server_apply_ns, 50);
    m["server.handle_apply_us.p90"] =
        hist(obs_before.server_apply_ns, obs_after.server_apply_ns, 90);
    m["server.handle_poll_us.p50"] =
        hist(obs_before.server_poll_ns, obs_after.server_poll_ns, 50);
    m["server.handle_poll_us.p90"] =
        hist(obs_before.server_poll_ns, obs_after.server_poll_ns, 90);
    std::vector<const Samples*> chan;
    for (const Samples& s : channel_lat) chan.push_back(&s);
    m["server.tcp_us.p50"] =
        Summarize(chan).p50_us -
        hist(obs_before.server_request_ns, obs_after.server_request_ns, 50);
    m["stream.wave_us.p50"] = hist(obs_before.wave_ns, obs_after.wave_ns, 50);
    m["stream.wave_us.p90"] = hist(obs_before.wave_ns, obs_after.wave_ns, 90);
    m["engine.apply_us.p50"] =
        hist(obs_before.apply_ns, obs_after.apply_ns, 50);
    m["engine.apply_us.p90"] =
        hist(obs_before.apply_ns, obs_after.apply_ns, 90);
    m["persist.replay_records"] = static_cast<double>(replayed);
    m["persist.replay_records_per_s"] =
        open_ns == 0 ? 0 : static_cast<double>(replayed) * 1e9 / open_ns;
    m["client.calls"] = static_cast<double>(client_calls);
    m["client.retry_amplification"] =
        client_calls == 0 ? 0
                          : static_cast<double>(client_attempts) / client_calls;
    AddCounterMetrics(before, after, obs_before, obs_after, &out);
    AddSpanMetrics(tracer, &out);
    if (!in.trace_file.empty()) tracer.WriteTsv(in.trace_file);
  }
  return out;
}

}  // namespace perfbench
