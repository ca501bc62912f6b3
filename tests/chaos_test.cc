// End-to-end fault tolerance (src/server/chaos.h, src/persist/dedup.h,
// DESIGN.md "Fault tolerance"). The load-bearing properties certified
// here: (1) at-least-once delivery has exactly-once *effect* — a retried
// request id answers from the dedup window byte-identically instead of
// re-executing, including across a durable server crash+restart; (2)
// without the window, duplicate delivery visibly harms (divergent
// responses, twice-minted stream handles) — the regression the window
// closes; (3) deadlines reject expired work before any engine mutation
// and bound the client's whole retry loop, sleeps included; (4) ping
// heartbeats keep a session alive past the idle reaper and report the
// drain flag; (5) BeginDrain sheds mutations with kShuttingDown + a
// retry hint while reads keep working; (6) a seeded multi-client chaos
// soak (drops, duplicates, replays, corruption, truncation, severed
// links) completes with gap-free cursors and exact parity against a
// fresh engine fed every response once, over a store without a log and
// over a durable one that must reopen to the same VersionVector; (7) a
// server with a log and one without answer one scripted frame sequence
// identically, and the reaper never retires a session that keeps
// pinging. The TSan CI job builds this test; the soak replays exactly
// from its seeds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "persist/dedup.h"
#include "persist/durable.h"
#include "server/chaos.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"
#include "stream/registry.h"

namespace rar {
namespace {

std::string TestDir(const std::string& name) {
  static uint64_t counter = 0;
  return ::testing::TempDir() + "rar_chaos_" + std::to_string(::getpid()) +
         "_" + name + "_" + std::to_string(counter++);
}

// Same deterministic chain world as server_test.cc: R(D, D) revealed
// link by link through a dependent access; apply k adds R(c{k}, c{k+1}).
struct ChainWorld {
  Schema schema;
  DomainId d;
  RelationId r;
  AccessMethodSet acs;
  AccessMethodId m;
  std::vector<Value> c;
  Configuration conf;

  explicit ChainWorld(int n)
      : d(schema.AddDomain("D")),
        r(*schema.AddRelation("R", {{"x", d}, {"y", d}})),
        acs(&schema),
        m(*acs.Add("get_r", r, {0}, /*dependent=*/true)),
        conf(&schema) {
    for (int i = 0; i <= n; ++i) {
      c.push_back(schema.InternConstant("c" + std::to_string(i)));
    }
    conf.AddSeedConstant(c[0], d);
  }

  Access Link(int k) const { return Access{m, {c[k]}}; }
  std::vector<Fact> LinkFacts(int k) const {
    return {Fact(r, {c[k], c[k + 1]})};
  }

  UnionQuery KaryQuery() const {
    ConjunctiveQuery cq;
    VarId x = cq.AddVar("X", d);
    VarId y = cq.AddVar("Y", d);
    cq.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
    cq.head = {x};
    UnionQuery uq;
    uq.disjuncts.push_back(cq);
    return uq;
  }

  UnionQuery BoolQuery() const {
    UnionQuery uq = KaryQuery();
    uq.disjuncts[0].head.clear();
    return uq;
  }
};

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

/// Raw framed call with a caller-chosen request id: the knob every
/// duplicate/replay test needs (RarClient owns ids; here the test does).
WireFrame RawCall(ClientChannel& channel, MessageType type,
                  const std::string& payload, uint64_t request_id,
                  uint64_t deadline_unix_ms = 0) {
  CallContext ctx;
  ctx.request_id = request_id;
  ctx.deadline_unix_ms = deadline_unix_ms;
  Result<WireFrame> frame = channel.Call(type, payload, ctx);
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  return frame.ok() ? *frame : WireFrame{};
}

WireError ExpectError(const WireFrame& frame) {
  EXPECT_EQ(frame.type, MessageType::kError);
  WireError e;
  EXPECT_TRUE(DecodeWireError(frame.payload, &e).ok());
  return e;
}

// ---------------------------------------------------------- dedup window

TEST(DedupWindowTest, FreshHitEvictStaleLifecycle) {
  DedupWindow window(2);
  const DedupWindow::Entry* entry = nullptr;
  EXPECT_EQ(window.Probe(1, &entry), DedupWindow::Verdict::kFresh);

  window.Record(1, 7, "one");
  ASSERT_EQ(window.Probe(1, &entry), DedupWindow::Verdict::kHit);
  EXPECT_EQ(entry->type, 7u);
  EXPECT_EQ(entry->response_payload, "one");

  // A recorded duplicate never clobbers the original outcome.
  window.Record(1, 9, "clobber");
  ASSERT_EQ(window.Probe(1, &entry), DedupWindow::Verdict::kHit);
  EXPECT_EQ(entry->response_payload, "one");

  // FIFO eviction past capacity raises the stale watermark: an evicted
  // id is provably completed and must never re-execute.
  window.Record(2, 7, "two");
  window.Record(3, 7, "three");
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.evicted_watermark(), 1u);
  EXPECT_EQ(window.Probe(1, nullptr), DedupWindow::Verdict::kStale);
  EXPECT_EQ(window.Probe(2, nullptr), DedupWindow::Verdict::kHit);
  EXPECT_EQ(window.Probe(4, nullptr), DedupWindow::Verdict::kFresh);
  EXPECT_EQ(window.next_free_id(), 4u);  // where a resumed client continues

  // Snapshot restore re-seeds the watermark before entries re-record.
  DedupWindow restored(2);
  restored.RestoreWatermark(1);
  EXPECT_EQ(restored.Probe(1, nullptr), DedupWindow::Verdict::kStale);
  EXPECT_EQ(restored.Probe(2, nullptr), DedupWindow::Verdict::kFresh);
  EXPECT_EQ(restored.next_free_id(), 2u);

  // Capacity zero disables dedup entirely: every probe is fresh.
  DedupWindow disabled(0);
  disabled.Record(5, 7, "five");
  EXPECT_EQ(disabled.Probe(5, nullptr), DedupWindow::Verdict::kFresh);
  EXPECT_EQ(disabled.size(), 0u);

  std::vector<uint64_t> order;
  window.ForEach([&](uint64_t id, const DedupWindow::Entry&) {
    order.push_back(id);
  });
  EXPECT_EQ(order, (std::vector<uint64_t>{2, 3}));
}

// ------------------------------------------- duplicate / replayed frames

TEST(FrameDedupTest, DuplicateApplyAnsweredByteIdenticallyFromCache) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());

  const std::string payload = EncodeApplyRequest(
      world.schema, world.acs, client.token(), world.Link(0),
      world.LinkFacts(0));
  WireFrame first = RawCall(channel, MessageType::kApply, payload, 100);
  ASSERT_EQ(first.type, MessageType::kApplyOk);

  // The network delivers the same frame again: the server must answer
  // the cached outcome byte for byte, without touching the engine.
  WireFrame dup = RawCall(channel, MessageType::kApply, payload, 100);
  EXPECT_EQ(dup.type, MessageType::kApplyOk);
  EXPECT_EQ(dup.payload, first.payload);
  ApplyResult result;
  ASSERT_TRUE(DecodeApplyResult(dup.payload, &result).ok());
  EXPECT_EQ(result.facts_added, 1u);

  EngineStats st = engine.stats();
  EXPECT_EQ(st.server_requests_apply, 2u);
  EXPECT_EQ(st.server_dedup_hits, 1u);
}

TEST(FrameDedupTest, WithoutWindowDuplicatesVisiblyHarm) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.dedup_window = 0;  // the regression this layer exists to close
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());

  // Duplicate apply: the second execution finds the facts already
  // present and answers facts_added = 0 — the two responses to ONE
  // logical request diverge, so a retrying client cannot trust either.
  const std::string apply_payload = EncodeApplyRequest(
      world.schema, world.acs, client.token(), world.Link(0),
      world.LinkFacts(0));
  WireFrame first = RawCall(channel, MessageType::kApply, apply_payload, 50);
  WireFrame dup = RawCall(channel, MessageType::kApply, apply_payload, 50);
  ApplyResult r1, r2;
  ASSERT_TRUE(DecodeApplyResult(first.payload, &r1).ok());
  ASSERT_TRUE(DecodeApplyResult(dup.payload, &r2).ok());
  EXPECT_EQ(r1.facts_added, 1u);
  EXPECT_EQ(r2.facts_added, 0u);
  EXPECT_NE(first.payload, dup.payload);

  // Duplicate register: two streams are minted for one logical
  // registration — a leak the client can never retire.
  const std::string reg_payload = EncodeRegisterStreamRequest(
      world.schema, client.token(), world.KaryQuery(), {});
  WireFrame reg1 = RawCall(channel, MessageType::kRegisterStream,
                           reg_payload, 51);
  WireFrame reg2 = RawCall(channel, MessageType::kRegisterStream,
                           reg_payload, 51);
  ASSERT_EQ(reg1.type, MessageType::kRegisterStreamOk);
  ASSERT_EQ(reg2.type, MessageType::kRegisterStreamOk);
  EXPECT_NE(reg1.payload, reg2.payload);
  EXPECT_EQ(engine.stats().server_dedup_hits, 0u);
}

TEST(FrameDedupTest, DuplicateRegisterReturnsOriginalHandle) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());

  const std::string reg_payload = EncodeRegisterStreamRequest(
      world.schema, client.token(), world.KaryQuery(), {});
  WireFrame reg1 = RawCall(channel, MessageType::kRegisterStream,
                           reg_payload, 7);
  WireFrame reg2 = RawCall(channel, MessageType::kRegisterStream,
                           reg_payload, 7);
  ASSERT_EQ(reg1.type, MessageType::kRegisterStreamOk);
  EXPECT_EQ(reg2.payload, reg1.payload);
  EXPECT_EQ(engine.stats().server_dedup_hits, 1u);
}

TEST(FrameDedupTest, ReorderedReplayOfOldRequestIsNoOp) {
  ChainWorld world(6);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());

  std::vector<std::string> originals;
  for (int k = 0; k < 3; ++k) {
    const std::string payload = EncodeApplyRequest(
        world.schema, world.acs, client.token(), world.Link(k),
        world.LinkFacts(k));
    WireFrame frame =
        RawCall(channel, MessageType::kApply, payload,
                static_cast<uint64_t>(200 + k));
    ASSERT_EQ(frame.type, MessageType::kApplyOk);
    originals.push_back(frame.payload);
  }

  // A stale retransmit of the first request surfaces after two newer
  // ones completed: answered from cache, engine untouched.
  const std::string replay_payload = EncodeApplyRequest(
      world.schema, world.acs, client.token(), world.Link(0),
      world.LinkFacts(0));
  WireFrame replay = RawCall(channel, MessageType::kApply, replay_payload,
                             200);
  EXPECT_EQ(replay.payload, originals[0]);
  EXPECT_EQ(engine.stats().server_dedup_hits, 1u);
  EXPECT_EQ(engine.stats().server_requests_apply, 4u);
}

TEST(FrameDedupTest, EvictedRequestIdRejectedAsStaleNeverReExecuted) {
  ChainWorld world(6);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.dedup_window = 1;
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());

  for (int k = 0; k < 2; ++k) {
    const std::string payload = EncodeApplyRequest(
        world.schema, world.acs, client.token(), world.Link(k),
        world.LinkFacts(k));
    ASSERT_EQ(RawCall(channel, MessageType::kApply, payload,
                      static_cast<uint64_t>(1 + k))
                  .type,
              MessageType::kApplyOk);
  }

  // Id 1 was evicted by id 2: a duplicate of it is provably a stale
  // replay whose original completed — reject, never re-apply.
  const std::string payload = EncodeApplyRequest(
      world.schema, world.acs, client.token(), world.Link(0),
      world.LinkFacts(0));
  WireError e =
      ExpectError(RawCall(channel, MessageType::kApply, payload, 1));
  EXPECT_EQ(e.code, WireErrorCode::kStaleRequest);
  EXPECT_EQ(engine.stats().server_dedup_stale, 1u);
  EXPECT_EQ(engine.stats().server_requests_apply, 3u);
}

TEST(FrameDedupTest, HitWithMismatchedTypeIsBadRequest) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());

  const std::string apply_payload = EncodeApplyRequest(
      world.schema, world.acs, client.token(), world.Link(0),
      world.LinkFacts(0));
  ASSERT_EQ(RawCall(channel, MessageType::kApply, apply_payload, 33).type,
            MessageType::kApplyOk);

  // The same request id re-used for a *different* operation is a client
  // bug, not a retry: the cached outcome must not be served as if it
  // answered the new request.
  const std::string reg_payload = EncodeRegisterStreamRequest(
      world.schema, client.token(), world.KaryQuery(), {});
  WireError e = ExpectError(
      RawCall(channel, MessageType::kRegisterStream, reg_payload, 33));
  EXPECT_EQ(e.code, WireErrorCode::kBadRequest);
}

// ------------------------------------------------------ one serving path

// Drives one scripted frame sequence through `server` and returns every
// response as (type, payload), with the two fields a server with a log
// legitimately answers differently zeroed: the session nonce in kHelloOk
// and kApplyOk's WAL sequence.
std::vector<std::pair<MessageType, std::string>> RunServingScript(
    SessionServer* server, const ChainWorld& world) {
  LoopbackChannel channel(server);
  std::vector<std::pair<MessageType, std::string>> out;
  SessionToken token;
  auto call = [&](MessageType type, const std::string& payload,
                  uint64_t request_id) {
    const WireFrame frame = RawCall(channel, type, payload, request_id);
    std::string normalized = frame.payload;
    if (frame.type == MessageType::kHelloOk) {
      HelloResponse hello;
      EXPECT_TRUE(DecodeHelloResponse(frame.payload, &hello).ok());
      hello.token.nonce = 0;
      normalized = EncodeHelloResponse(hello);
    } else if (frame.type == MessageType::kApplyOk) {
      ApplyResult result;
      EXPECT_TRUE(DecodeApplyResult(frame.payload, &result).ok());
      result.wal_sequence = 0;
      normalized = EncodeApplyResult(result);
    }
    out.emplace_back(frame.type, std::move(normalized));
    return frame;
  };
  auto apply = [&](int k, uint64_t request_id) {
    call(MessageType::kApply,
         EncodeApplyRequest(world.schema, world.acs, token, world.Link(k),
                            world.LinkFacts(k)),
         request_id);
  };

  HelloResponse hello;
  EXPECT_TRUE(DecodeHelloResponse(
                  call(MessageType::kHello, EncodeHelloRequest({}), 1).payload,
                  &hello)
                  .ok());
  token = hello.token;
  call(MessageType::kRegisterQuery,
       EncodeRegisterQueryRequest(world.schema, token, world.BoolQuery()), 2);
  call(MessageType::kRegisterStream,
       EncodeRegisterStreamRequest(world.schema, token, world.KaryQuery(), {}),
       3);
  apply(0, 3);  // reuses the live stream registration's id
  for (int k = 0; k < 3; ++k) apply(k, static_cast<uint64_t>(4 + k));
  apply(2, 6);  // an exact duplicate of the last apply
  apply(0, 4);  // the first apply's id, evicted from a window of two
  const WireFrame polled =
      call(MessageType::kPoll, EncodePollRequest(token, 0, 0), 7);
  StreamDelta delta;
  EXPECT_TRUE(DecodePollResponse(world.schema, polled.payload, &delta).ok());
  call(MessageType::kAcknowledge,
       EncodeAckRequest(token, 0, delta.last_sequence), 8);
  call(MessageType::kPoll, EncodePollRequest(token, 0, delta.last_sequence),
       9);
  call(MessageType::kPoll, EncodePollRequest(token, 1, 0), 10);
  call(MessageType::kGoodbye, EncodeGoodbyeRequest(token), 11);
  call(MessageType::kPing, EncodePingRequest(token), 12);
  return out;
}

TEST(ServingModesTest, InMemoryAndDurableServersAnswerAlike) {
  ServerOptions opts;
  opts.dedup_window = 2;
  EngineOptions quiet;
  quiet.num_threads = 1;

  // Two identical worlds, so fresh constants get the same spellings.
  ChainWorld mem_world(4);
  RelevanceEngine engine(mem_world.schema, mem_world.acs, mem_world.conf,
                         quiet);
  RelevanceStreamRegistry registry(&engine);
  SessionServer in_memory(&engine, &registry, opts);
  const auto want = RunServingScript(&in_memory, mem_world);

  ChainWorld log_world(4);
  auto store = DurableSession::Open(log_world.schema, log_world.acs,
                                    log_world.conf, TestDir("modes"), {},
                                    quiet);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SessionServer durable(store->get(), opts);
  const auto got = RunServingScript(&durable, log_world);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "response " << i;
    EXPECT_EQ(got[i].second, want[i].second) << "response " << i;
  }

  // The script reaches every dedup outcome: the reused id's type
  // mismatch, the duplicate's hit and the evicted id's stale rejection.
  ASSERT_EQ(want.size(), 15u);
  WireError mismatch, stale;
  ASSERT_EQ(want[3].first, MessageType::kError);
  ASSERT_TRUE(DecodeWireError(want[3].second, &mismatch).ok());
  EXPECT_EQ(mismatch.code, WireErrorCode::kBadRequest);
  EXPECT_EQ(want[7], want[6]);
  ASSERT_EQ(want[8].first, MessageType::kError);
  ASSERT_TRUE(DecodeWireError(want[8].second, &stale).ok());
  EXPECT_EQ(stale.code, WireErrorCode::kStaleRequest);
  EXPECT_EQ(engine.stats().server_dedup_hits, 1u);
  EXPECT_EQ(durable.engine().stats().server_dedup_hits, 1u);
}

// -------------------------------------------------------------- deadlines

TEST(DeadlineTest, ExpiredFrameRejectedBeforeAnyMutation) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());

  const std::string payload = EncodeApplyRequest(
      world.schema, world.acs, client.token(), world.Link(0),
      world.LinkFacts(0));
  // Deadline of 1ms past the epoch: expired decades ago.
  WireError e = ExpectError(
      RawCall(channel, MessageType::kApply, payload, 40, /*deadline=*/1));
  EXPECT_EQ(e.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(engine.stats().server_deadline_rejections, 1u);

  // The engine never saw the expired apply: a fresh retry with a new
  // deadline still adds the fact.
  WireFrame ok = RawCall(channel, MessageType::kApply, payload, 41);
  ASSERT_EQ(ok.type, MessageType::kApplyOk);
  ApplyResult result;
  ASSERT_TRUE(DecodeApplyResult(ok.payload, &result).ok());
  EXPECT_EQ(result.facts_added, 1u);
}

TEST(DeadlineTest, CallTimeoutBoundsTheWholeRetryLoop) {
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  ChaosPlan plan;
  plan.seed = 11;
  plan.drop_request = 1.0;  // nothing ever gets through
  ChaosChannel channel(&server, plan);

  RetryPolicy retry;
  retry.max_attempts = 1000;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 4;
  retry.call_timeout_ms = 120;
  RarClient client(&channel, &world.schema, &world.acs, retry);

  const auto started = std::chrono::steady_clock::now();
  Status status = client.Hello();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  // The deadline bounds attempts *and* backoff sleeps; well under the
  // 1000-attempt budget, and no runaway wall clock.
  EXPECT_LT(client.attempts_issued(), 1000u);
  EXPECT_LT(elapsed.count(), 5000);
  EXPECT_EQ(engine.stats().server_requests_hello, 0u);
}

// ---------------------------------------------------- heartbeats / reaping

TEST(HeartbeatTest, PingKeepsSessionAliveWhileSilentPeerIsReaped) {
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.idle_timeout_ms = 60;
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel ch_live(&server), ch_silent(&server);
  RarClient live(&ch_live, &world.schema, &world.acs);
  RarClient silent(&ch_silent, &world.schema, &world.acs);
  ASSERT_TRUE(live.Hello().ok());
  ASSERT_TRUE(silent.Hello().ok());
  ASSERT_EQ(server.num_sessions(), 2u);

  // The live client heartbeats through two idle windows; the silent one
  // says nothing.
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Result<PingResponse> pong = live.Ping();
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_FALSE(pong->draining);
    EXPECT_GT(pong->server_unix_ms, 0u);
  }

  EXPECT_EQ(server.ReapIdleSessions(), 1u);
  EXPECT_EQ(server.num_sessions(), 1u);
  EXPECT_TRUE(live.Ping().ok());
  EXPECT_EQ(silent.Ping().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.stats().server_sessions_reaped, 1u);
}

TEST(HeartbeatTest, ReaperNeverRetiresAnActiveSession) {
  // The reaper must read its clock under the session table's lock: a
  // ping that stamps a session between an earlier clock read and the lock
  // makes `now - last` wrap around, and the session looks idle forever.
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.idle_timeout_ms = 60000;
  SessionServer server(&engine, &registry, opts);

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> pings{0}, failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      LoopbackChannel channel(&server);
      RarClient client(&channel, &world.schema, &world.acs);
      if (!client.Hello().ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load()) {
        if (!client.Ping().ok()) failures.fetch_add(1);
        pings.fetch_add(1);
      }
    });
  }
  size_t reaped = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < until) {
    reaped += server.ReapIdleSessions();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(pings.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(reaped, 0u);
  EXPECT_EQ(server.num_sessions(), static_cast<size_t>(kClients));
}

TEST(HeartbeatTest, PeerSuspicionTripsAfterConsecutiveFailuresAndResets) {
  // A channel that fails the first N sends at transport level, then
  // delegates — deterministic dead-peer detection without probabilities.
  class FlakyChannel : public ClientChannel {
   public:
    FlakyChannel(SessionServer* server, int fail_first)
        : inner_(server), fail_remaining_(fail_first) {}
    Result<WireFrame> Call(MessageType type, std::string_view payload,
                           const CallContext& ctx) override {
      if (fail_remaining_ > 0) {
        --fail_remaining_;
        return Status::Unavailable("flaky: send failed");
      }
      return inner_.Call(type, payload, ctx);
    }

   private:
    LoopbackChannel inner_;
    int fail_remaining_;
  };

  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  FlakyChannel channel(&server, /*fail_first=*/5);
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 2;
  retry.suspect_after = 3;
  RarClient client(&channel, &world.schema, &world.acs, retry);

  // Two failures: below the suspicion threshold.
  EXPECT_EQ(client.Hello().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client.peer_suspected());
  // Two more consecutive failures cross it.
  EXPECT_EQ(client.Hello().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(client.peer_suspected());
  // One more failure, then a success: suspicion resets.
  EXPECT_TRUE(client.Hello().ok());
  EXPECT_FALSE(client.peer_suspected());
}

// ------------------------------------------------------------------ drain

TEST(DrainTest, ShedsMutationsWithRetryHintWhileServingReads) {
  ChainWorld world(6);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.drain_retry_after_ms = 123;
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(sh.ok());
  ASSERT_TRUE(client.Apply(world.Link(0), world.LinkFacts(0)).ok());

  ASSERT_TRUE(server.BeginDrain().ok());
  EXPECT_TRUE(server.draining());
  // Idempotent: a second drain is a no-op, not a deadlock.
  ASSERT_TRUE(server.BeginDrain().ok());

  // Fresh admission and mutations shed with the drain hint.
  LoopbackChannel ch2(&server);
  RarClient late(&ch2, &world.schema, &world.acs);
  EXPECT_EQ(late.Hello().code(), StatusCode::kUnavailable);
  EXPECT_EQ(late.last_error().code, WireErrorCode::kShuttingDown);
  EXPECT_EQ(late.last_error().retry_after_ms, 123u);

  EXPECT_EQ(client.Apply(world.Link(1), world.LinkFacts(1)).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(client.last_error().code, WireErrorCode::kShuttingDown);
  EXPECT_EQ(
      client.RegisterStream(world.BoolQuery()).status().code(),
      StatusCode::kUnavailable);

  // Reads keep working so clients can wind down: poll, ack, snapshot,
  // metrics, ping (which reports the drain), and finally goodbye.
  Result<StreamDelta> delta = client.Poll(*sh, 0);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_FALSE(delta->events.empty());
  ASSERT_TRUE(client.Acknowledge(*sh, delta->last_sequence).ok());
  EXPECT_TRUE(client.Snapshot(*sh).ok());
  EXPECT_TRUE(client.Metrics().ok());
  Result<PingResponse> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->draining);
  EXPECT_TRUE(client.Goodbye().ok());

  EngineStats st = engine.stats();
  EXPECT_GE(st.server_drain_sheds, 3u);
  EXPECT_EQ(st.server_requests_apply, 2u);
}

TEST(DrainTest, ResumeStillWorksDuringDrain) {
  // A reconnecting client presenting a live token is winding *down*, not
  // up: drain admits the resume so it can drain its stream and leave.
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  const SessionToken token = client.token();

  ASSERT_TRUE(server.BeginDrain().ok());
  LoopbackChannel ch2(&server);
  RarClient back(&ch2, &world.schema, &world.acs);
  ASSERT_TRUE(back.Resume(token).ok());
  EXPECT_TRUE(back.resumed());
}

// ---------------------------------------------------- retries under chaos

TEST(ChaosRetryTest, DroppedResponsesRecoverWithExactlyOnceEffect) {
  ChainWorld world(12);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  // drop_response is the nastiest fault: the server already executed, so
  // only request-id dedup makes the mandatory retry safe.
  ChaosPlan plan;
  plan.seed = 42;
  plan.drop_response = 0.4;
  ChaosChannel channel(&server, plan);

  RetryPolicy retry;
  retry.max_attempts = 30;
  retry.base_backoff_ms = 1;
  retry.max_backoff_ms = 4;
  RarClient client(&channel, &world.schema, &world.acs, retry);
  ASSERT_TRUE(client.Hello().ok());
  Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(sh.ok());

  RelevanceEngine mirror(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry mirror_reg(&mirror);
  StreamOptions retained;
  retained.retain_events = true;
  Result<StreamId> mirror_sid =
      mirror_reg.Register(world.KaryQuery(), retained);
  ASSERT_TRUE(mirror_sid.ok());

  for (int k = 0; k < 10; ++k) {
    Result<ApplyResult> applied =
        client.Apply(world.Link(k), world.LinkFacts(k));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    // Even when the successful attempt was a dedup hit, the cached
    // response is the original: exactly one fact per link, every time.
    EXPECT_EQ(applied->facts_added, 1u);
    ASSERT_TRUE(mirror.ApplyResponse(world.Link(k), world.LinkFacts(k)).ok());
  }

  // The plan actually bit, and retries papered over every loss.
  EXPECT_GT(channel.log().dropped_responses, 0u);
  EXPECT_GT(client.attempts_issued(), client.calls_issued());
  EXPECT_EQ(client.retries_exhausted(), 0u);
  EXPECT_GT(engine.stats().server_dedup_hits, 0u);

  // Exactly-once effect: the served stream equals a mirror fed each
  // response once, binding by binding.
  Result<StreamSnapshot> served = client.Snapshot(*sh);
  ASSERT_TRUE(served.ok());
  StreamSnapshot direct = mirror_reg.Snapshot(*mirror_sid);
  EXPECT_EQ(served->bindings_tracked, direct.bindings_tracked);
  EXPECT_EQ(SnapshotKey(world.schema, *served),
            SnapshotKey(world.schema, direct));
}

// -------------------------------------------------------------- chaos soak

// Parameter: serve from a store with a log (true) or without one.
class ChaosSoakTest : public ::testing::TestWithParam<bool> {};

TEST_P(ChaosSoakTest, MultiClientSoakKeepsSafetyAndLiveness) {
  constexpr int kClients = 4;
  constexpr int kLinksPerClient = 8;
  ChainWorld world(kClients * kLinksPerClient + 1);
  // Each client walks its own chain segment; a dependent access needs
  // its binding in the active domain, so seed every segment's root.
  for (int i = 1; i < kClients; ++i) {
    world.conf.AddSeedConstant(world.c[i * kLinksPerClient], world.d);
  }
  const bool logged = GetParam();
  const std::string dir = TestDir("soak");
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  std::unique_ptr<DurableSession> store;
  std::unique_ptr<SessionServer> owner;
  // Snapshots every few records, so some run while other clients mutate:
  // they read every session's window under the store mutex alone.
  PersistOptions popts;
  popts.snapshot_every_records = 16;
  if (logged) {
    auto opened = DurableSession::Open(world.schema, world.acs, world.conf,
                                       dir, popts, {});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store = std::move(*opened);
    owner = std::make_unique<SessionServer>(store.get());
  } else {
    owner = std::make_unique<SessionServer>(&engine, &registry);
  }
  SessionServer& server = *owner;

  struct ClientReport {
    bool ok = false;
    uint64_t attempts = 0;
    uint64_t calls = 0;
    ChaosLog chaos;
    std::string failure;
  };
  std::vector<ClientReport> reports(kClients);

  // Every fault class at once, per-client seeded: a failing soak replays
  // exactly from its seed.
  auto run_client = [&](int idx) {
    ChaosPlan plan;
    plan.seed = 1000 + static_cast<uint64_t>(idx);
    plan.drop_request = 0.05;
    plan.drop_response = 0.08;
    plan.duplicate_request = 0.06;
    plan.replay_previous = 0.05;
    plan.corrupt = 0.03;
    plan.truncate = 0.03;
    plan.sever = 0.02;
    plan.heal_after = 2;
    ChaosChannel channel(&server, plan);

    RetryPolicy retry;
    retry.max_attempts = 40;
    retry.base_backoff_ms = 1;
    retry.max_backoff_ms = 4;
    retry.jitter_seed = 77 + static_cast<uint64_t>(idx);
    RarClient client(&channel, &world.schema, &world.acs, retry);

    ClientReport& report = reports[idx];
    auto fail = [&](const std::string& what, const Status& status) {
      report.failure = what + ": " + status.ToString();
    };

    Status hello = client.Hello();
    if (!hello.ok()) return fail("hello", hello);
    Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
    if (!sh.ok()) return fail("register", sh.status());

    uint64_t cursor = 0;
    uint64_t last_seen = 0;
    for (int k = idx * kLinksPerClient; k < (idx + 1) * kLinksPerClient;
         ++k) {
      Result<ApplyResult> applied =
          client.Apply(world.Link(k), world.LinkFacts(k));
      if (!applied.ok()) return fail("apply", applied.status());
      if (applied->facts_added != 1) {
        report.failure = "apply double-counted: facts_added = " +
                         std::to_string(applied->facts_added);
        return;
      }
      // Gap-free delivery survives the chaos: sequences stay contiguous
      // from this subscriber's cursor.
      Result<StreamDelta> delta = client.Poll(*sh, cursor);
      if (!delta.ok()) return fail("poll", delta.status());
      for (const StreamEvent& ev : delta->events) {
        if (ev.sequence != last_seen + 1) {
          report.failure = "cursor gap: saw " + std::to_string(ev.sequence) +
                           " after " + std::to_string(last_seen);
          return;
        }
        last_seen = ev.sequence;
      }
      cursor = delta->last_sequence;
      Status acked = client.Acknowledge(*sh, cursor);
      if (!acked.ok()) return fail("ack", acked);
    }

    report.attempts = client.attempts_issued();
    report.calls = client.calls_issued();
    report.chaos = channel.log();
    report.ok = true;
  };

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back(run_client, i);
  }
  for (std::thread& t : threads) t.join();

  // Liveness: every client completed its full script.
  uint64_t faults = 0, attempts = 0, calls = 0;
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(reports[i].ok)
        << "client " << i << " failed: " << reports[i].failure;
    faults += reports[i].chaos.dropped_requests +
              reports[i].chaos.dropped_responses +
              reports[i].chaos.duplicated + reports[i].chaos.replayed +
              reports[i].chaos.corrupted + reports[i].chaos.truncated +
              reports[i].chaos.severed;
    attempts += reports[i].attempts;
    calls += reports[i].calls;
  }
  // The soak means nothing if the plans never fired.
  EXPECT_GT(faults, 0u);
  EXPECT_GT(attempts, calls);

  // Safety: the served state is exactly what a fresh engine fed every
  // response once computes — no lost and no double-applied facts.
  RelevanceEngine mirror(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry mirror_reg(&mirror);
  StreamOptions retained;
  retained.retain_events = true;
  Result<StreamId> mirror_sid =
      mirror_reg.Register(world.KaryQuery(), retained);
  ASSERT_TRUE(mirror_sid.ok());
  for (int k = 0; k < kClients * kLinksPerClient; ++k) {
    ASSERT_TRUE(mirror.ApplyResponse(world.Link(k), world.LinkFacts(k)).ok());
  }

  LoopbackChannel clean(&server);
  RarClient auditor(&clean, &world.schema, &world.acs);
  ASSERT_TRUE(auditor.Hello().ok());
  Result<uint32_t> audit_sh = auditor.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(audit_sh.ok());
  Result<StreamSnapshot> served = auditor.Snapshot(*audit_sh);
  ASSERT_TRUE(served.ok());
  StreamSnapshot direct = mirror_reg.Snapshot(*mirror_sid);
  EXPECT_EQ(served->bindings_tracked, direct.bindings_tracked);
  EXPECT_EQ(SnapshotKey(world.schema, *served),
            SnapshotKey(world.schema, direct));

  if (!logged) return;
  // Durability: the directory reopens to exactly the served state.
  const VersionVector served_versions = server.engine().versions();
  owner.reset();
  store.reset();
  auto reopened = DurableSession::Open(world.schema, world.acs, world.conf,
                                       dir, popts, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->recovery().from_snapshot);
  EXPECT_EQ((*reopened)->engine().versions(), served_versions);
}

INSTANTIATE_TEST_SUITE_P(, ChaosSoakTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Durable" : "InMemory";
                         });

// --------------------------------------------------- crash + retry dedup

TEST(CrashRecoveryTest, RetryStraddlingServerCrashAnswersFromWal) {
  const std::string dir = TestDir("crash_retry");
  ChainWorld world(6);
  EngineOptions quiet;
  quiet.num_threads = 1;

  SessionToken token;
  std::string original_apply_response;
  std::string original_register_response;
  uint64_t facts_before_crash = 0;

  {
    auto durable = DurableSession::Open(world.schema, world.acs, world.conf,
                                        dir, {}, quiet);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    SessionServer server(durable->get());
    LoopbackChannel channel(&server);
    RarClient client(&channel, &world.schema, &world.acs);
    ASSERT_TRUE(client.Hello().ok());
    token = client.token();

    const std::string reg_payload = EncodeRegisterStreamRequest(
        world.schema, token, world.KaryQuery(), {});
    WireFrame reg =
        RawCall(channel, MessageType::kRegisterStream, reg_payload, 2);
    ASSERT_EQ(reg.type, MessageType::kRegisterStreamOk);
    original_register_response = reg.payload;

    for (int k = 0; k < 2; ++k) {
      const std::string payload = EncodeApplyRequest(
          world.schema, world.acs, token, world.Link(k), world.LinkFacts(k));
      WireFrame frame =
          RawCall(channel, MessageType::kApply, payload,
                  static_cast<uint64_t>(10 + k));
      ASSERT_EQ(frame.type, MessageType::kApplyOk);
      if (k == 0) original_apply_response = frame.payload;
      ApplyResult result;
      ASSERT_TRUE(DecodeApplyResult(frame.payload, &result).ok());
      facts_before_crash += result.facts_added;
    }
    ASSERT_TRUE((*durable)->Flush().ok());
    // Server + durable session torn down here: the "crash".
  }

  auto recovered = DurableSession::Open(world.schema, world.acs, world.conf,
                                        dir, {}, quiet);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SessionServer server(recovered->get());
  EXPECT_EQ(server.engine().stats().server_sessions_recovered, 1u);
  LoopbackChannel channel(&server);

  // The client never saw the response to apply id 10, so after the
  // server restart it retries the SAME id. The WAL-recovered dedup
  // window answers the original outcome byte for byte — the fact is not
  // applied twice, and facts_added reports the original 1, not 0.
  const std::string retry_payload = EncodeApplyRequest(
      world.schema, world.acs, token, world.Link(0), world.LinkFacts(0));
  WireFrame retried = RawCall(channel, MessageType::kApply, retry_payload, 10);
  EXPECT_EQ(retried.type, MessageType::kApplyOk);
  EXPECT_EQ(retried.payload, original_apply_response);

  // Same for the registration: the retry gets the original handle, no
  // second stream is minted.
  const std::string reg_payload = EncodeRegisterStreamRequest(
      world.schema, token, world.KaryQuery(), {});
  WireFrame rereg =
      RawCall(channel, MessageType::kRegisterStream, reg_payload, 2);
  EXPECT_EQ(rereg.payload, original_register_response);
  EXPECT_EQ(server.engine().stats().server_dedup_hits, 2u);

  // A genuinely fresh duplicate-content apply proves the state: the
  // facts are already there (recovery applied them exactly once), so a
  // NEW request id adds zero.
  WireFrame fresh = RawCall(channel, MessageType::kApply, retry_payload, 99);
  ASSERT_EQ(fresh.type, MessageType::kApplyOk);
  ApplyResult fresh_result;
  ASSERT_TRUE(DecodeApplyResult(fresh.payload, &fresh_result).ok());
  EXPECT_EQ(fresh_result.facts_added, 0u);
  EXPECT_EQ(facts_before_crash, 2u);

  // And the pre-crash token still resumes: handles and cursors intact.
  RarClient back(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(back.Resume(token).ok());
  EXPECT_TRUE(back.resumed());
  uint32_t handle = 0;
  {
    BinReader r(original_register_response);
    ASSERT_TRUE(r.U32(&handle).ok());
  }
  Result<StreamDelta> delta = back.Poll(handle, 0);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  uint64_t expect_seq = 0;
  for (const StreamEvent& ev : delta->events) {
    EXPECT_EQ(ev.sequence, ++expect_seq);
  }
  EXPECT_GT(expect_seq, 0u);
}

// A second client object resuming a token must continue numbering past
// every request id the session's dedup window has seen. Numbering from 1
// again would have its first mutations answered from cache (or rejected
// as stale) without running.
TEST(ResumeTest, ResumedClientNumbersPastRecordedRequestIds) {
  ChainWorld world(8);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});
  LoopbackChannel channel(&server);

  RarClient first(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(first.Hello().ok());
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(first.Apply(world.Link(k), world.LinkFacts(k)).ok());
  }

  RarClient second(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(second.Resume(first.token()).ok());
  const uint64_t applies_before = engine.stats().responses_applied;
  Result<ApplyResult> applied = second.Apply(world.Link(3), world.LinkFacts(3));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->facts_added, 1u);
  EXPECT_EQ(engine.stats().responses_applied, applies_before + 1);
  EXPECT_EQ(engine.stats().server_dedup_hits, 0u);
}

TEST(ResumeTest, ResumedClientNumbersPastRecordedRequestIdsAfterCrash) {
  const std::string dir = TestDir("resume_ids");
  ChainWorld world(8);
  EngineOptions quiet;
  quiet.num_threads = 1;

  SessionToken token;
  {
    auto durable = DurableSession::Open(world.schema, world.acs, world.conf,
                                        dir, {}, quiet);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    SessionServer server(durable->get());
    LoopbackChannel channel(&server);
    RarClient client(&channel, &world.schema, &world.acs);
    ASSERT_TRUE(client.Hello().ok());
    token = client.token();
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(client.Apply(world.Link(k), world.LinkFacts(k)).ok());
    }
    ASSERT_TRUE((*durable)->Flush().ok());
  }  // the "crash"

  auto recovered = DurableSession::Open(world.schema, world.acs, world.conf,
                                        dir, {}, quiet);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  SessionServer server(recovered->get());
  LoopbackChannel channel(&server);
  RarClient back(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(back.Resume(token).ok());
  const uint64_t applies_before = server.engine().stats().responses_applied;
  Result<ApplyResult> applied = back.Apply(world.Link(3), world.LinkFacts(3));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->facts_added, 1u);
  EXPECT_EQ(server.engine().stats().responses_applied, applies_before + 1);
  EXPECT_EQ(server.engine().stats().server_dedup_hits, 0u);
}

}  // namespace
}  // namespace rar
