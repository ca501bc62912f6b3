// The RelevanceEngine as a network service: a SessionServer (src/server/)
// fronting one engine + stream registry, with clients speaking the
// length-prefixed CRC-framed wire protocol through real TCP sockets
// (falling back to the in-process loopback channel where the sandbox
// forbids sockets — same bytes, same codecs, no port).
//
// The cast:
//   * crawler client    — registers the clique query, performs accesses
//                         against a simulated deep-Web source, and ships
//                         every response through kApply frames;
//   * subscriber client — registers a standing k-ary stream, polls
//                         deltas, acknowledges, then *drops its
//                         connection* and resumes by session token on a
//                         fresh one: sessions are token-bound, not
//                         connection-bound, so nothing is lost;
//   * operator client   — scrapes kMetrics over the wire (JSON and
//                         Prometheus text exposition).
//
// Everything that mutates the engine crosses the wire; only the crawl
// *planning* (which access to do next) reads the engine in-process,
// standing in for the sources a real deployment would consult.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/export.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "sim/deep_web.h"
#include "stream/registry.h"
#include "util/rng.h"
#include "workload/generators.h"

int main() {
  using namespace rar;

  std::printf("=== rar session server demo ===\n\n");

  Rng rng(2024);
  CliqueFamily family = MakeCliqueFamily(&rng, 3, 12, 0.5);
  const Scenario& s = family.scenario;

  // The engine starts knowing only the node set; edges live behind the
  // simulated source and are revealed by accesses.
  Configuration initial(s.schema.get());
  for (const TypedValue& tv : s.conf.AdomEntries()) {
    initial.AddSeedConstant(tv.value, tv.domain);
  }
  DeepWebSource source(s.schema.get(), &s.acs, s.conf);

  // ---- server side ---------------------------------------------------
  EngineOptions eopts;
  eopts.num_threads = 2;
  RelevanceEngine engine(*s.schema, s.acs, initial, eopts);
  RelevanceStreamRegistry registry(&engine);

  ServerOptions sopts;
  sopts.max_sessions = 64;           // admission cap (kRetryLater beyond)
  sopts.max_backlog_events = 1024;   // per-stream retention bound
  SessionServer server(&engine, &registry, sopts);

  TcpServer tcp(&server);
  auto port = tcp.Start();
  const bool over_tcp = port.ok();
  std::printf("transport: %s\n\n",
              over_tcp ? ("tcp 127.0.0.1:" + std::to_string(*port)).c_str()
                       : "loopback (sockets unavailable here)");

  // Each client owns one channel; on TCP that is one connection.
  auto make_channel = [&]() -> std::unique_ptr<ClientChannel> {
    if (over_tcp) {
      auto ch = TcpChannel::Connect("127.0.0.1", *port);
      if (ch.ok()) return std::move(*ch);
    }
    return std::make_unique<LoopbackChannel>(&server);
  };

  // ---- crawler client ------------------------------------------------
  std::unique_ptr<ClientChannel> crawler_ch = make_channel();
  RarClient crawler(crawler_ch.get(), s.schema.get(), &s.acs);
  if (!crawler.Hello().ok()) return 1;
  if (!crawler.RegisterQuery(family.query).ok()) return 1;
  std::printf("crawler: session open, query registered: %s\n",
              family.query.ToString(*s.schema).c_str());

  // ---- subscriber client ---------------------------------------------
  // Q(X) :- E(X, Y): which nodes verifiably have an outgoing edge.
  UnionQuery kuq;
  {
    const RelationId e = s.schema->FindRelation("E");
    ConjunctiveQuery kq;
    VarId x = kq.AddVar("X", 0);
    VarId y = kq.AddVar("Y", 0);
    kq.atoms.push_back(Atom{e, {Term::MakeVar(x), Term::MakeVar(y)}});
    kq.head = {x};
    kuq.disjuncts.push_back(kq);
  }
  std::unique_ptr<ClientChannel> sub_ch = make_channel();
  RarClient subscriber(sub_ch.get(), s.schema.get(), &s.acs);
  if (!subscriber.Hello().ok()) return 1;
  auto handle = subscriber.RegisterStream(kuq);
  if (!handle.ok()) return 1;
  const SessionToken sub_token = subscriber.token();

  // ---- the crawl, over the wire --------------------------------------
  uint64_t cursor = 0;
  int performed = 0;
  for (int tick = 0; tick < 12; ++tick) {
    const Access* next = nullptr;
    std::vector<Access> pending = engine.PendingAccesses();
    for (const Access& a : pending) {
      if (!engine.WasPerformed(a)) {
        next = &a;
        break;
      }
    }
    if (next == nullptr) break;
    auto response = source.Execute(engine, *next);
    if (!response.ok()) break;
    auto applied = crawler.Apply(*next, *response);
    if (!applied.ok()) {
      std::printf("apply bounced: %s\n",
                  applied.status().ToString().c_str());
      break;
    }
    ++performed;

    auto delta = subscriber.Poll(*handle, cursor);
    if (!delta.ok()) return 1;
    if (!delta->events.empty()) {
      std::printf("tick %-2d apply +%u fact(s) -> %zu stream event(s):\n",
                  tick, applied->facts_added, delta->events.size());
      for (const StreamEvent& ev : delta->events) {
        std::printf("  #%llu %s %s\n",
                    static_cast<unsigned long long>(ev.sequence),
                    ToString(ev.kind),
                    s.schema->ValueToString(ev.binding[0]).c_str());
      }
      cursor = delta->last_sequence;
      if (!subscriber.Acknowledge(*handle, cursor).ok()) return 1;
    }
  }

  // ---- reconnect-and-resume ------------------------------------------
  // Drop the subscriber's connection outright; the session survives on
  // the server. A fresh channel + the old token resumes it, and the
  // cursor-addressed poll redelivers exactly what was never acknowledged.
  sub_ch.reset();
  std::unique_ptr<ClientChannel> sub_ch2 = make_channel();
  RarClient resumed(sub_ch2.get(), s.schema.get(), &s.acs);
  if (!resumed.Resume(sub_token).ok()) return 1;
  auto tail = resumed.Poll(*handle, cursor);
  if (!tail.ok()) return 1;
  std::printf(
      "\nsubscriber reconnected (resumed=%s): %zu event(s) after acked "
      "cursor #%llu\n",
      resumed.resumed() ? "yes" : "no", tail->events.size(),
      static_cast<unsigned long long>(cursor));
  auto snap = resumed.Snapshot(*handle);
  if (!snap.ok()) return 1;
  std::printf("stream snapshot: %llu bindings tracked, %llu certain, %llu "
              "still relevant\n",
              static_cast<unsigned long long>(snap->bindings_tracked),
              static_cast<unsigned long long>(snap->certain),
              static_cast<unsigned long long>(snap->relevant));

  // ---- operator client: metrics over the wire ------------------------
  std::unique_ptr<ClientChannel> ops_ch = make_channel();
  RarClient ops(ops_ch.get(), s.schema.get(), &s.acs);
  if (!ops.Hello().ok()) return 1;
  auto prom = ops.Metrics(MetricsFormat::kPrometheus);
  if (!prom.ok()) return 1;
  std::printf("\n--- rar_server_* rows of the Prometheus exposition ---\n");
  size_t pos = 0;
  while (pos < prom->size()) {
    size_t eol = prom->find('\n', pos);
    if (eol == std::string::npos) eol = prom->size();
    const std::string line = prom->substr(pos, eol - pos);
    if (line.find("rar_server_") != std::string::npos &&
        line[0] != '#') {
      std::printf("%s\n", line.c_str());
    }
    pos = eol + 1;
  }

  // ---- graceful drain ------------------------------------------------
  // Heartbeats see the drain flag flip; fresh mutations shed with
  // kShuttingDown + a retry hint while the live clients wind down
  // (reads, acks and goodbyes keep working throughout).
  auto pong = ops.Ping();
  if (!pong.ok() || pong->draining) return 1;
  if (!server.BeginDrain().ok()) return 1;
  pong = ops.Ping();
  if (!pong.ok() || !pong->draining) return 1;
  std::printf("\ndrain: heartbeat reports draining=%s; mutations now shed "
              "with kShuttingDown (retry hint %u ms)\n",
              pong->draining ? "true" : "false",
              server.options().drain_retry_after_ms);

  if (!crawler.Goodbye().ok() || !resumed.Goodbye().ok() ||
      !ops.Goodbye().ok()) {
    return 1;
  }
  tcp.Stop();
  std::printf("\nperformed %d accesses over the wire; %zu session(s) left\n",
              performed, server.num_sessions());
  return 0;
}
