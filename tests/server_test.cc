// The serving layer (src/server/): wire protocol hardening, session
// lifecycle, admission/backpressure shedding, and concurrent multi-client
// delivery. The load-bearing properties: (1) no byte stream — truncated,
// bit-flipped, oversized, type-garbled, or cut mid-message — ever
// crashes the server, desyncs a connection that passed CRC, or mutates
// the engine; damage surfaces as a typed error; (2) every shed is
// attributed: admission-bounced Hellos, backpressured applies and evicted
// cursors each land in their own counter and typed error code; (3) under
// concurrent sessions, appliers and subscribers, delta delivery per
// stream is gap-free and the served state is exactly what a fresh engine
// fed the same responses computes — including behind an unacknowledged
// backlog. The TSan CI job builds this test to certify the session
// layer's lock discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "engine/engine.h"
#include "exposition_check.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"
#include "stream/registry.h"
#include "workload/generators.h"

namespace rar {
namespace {

// ------------------------------------------------------------ wire frames

TEST(WireProtocolTest, TruncationNeedsMoreBitFlipCorrupts) {
  std::string wire;
  EncodeWireFrame(7, MessageType::kPoll, "payload-bytes", &wire);

  // Every strict prefix is an incomplete stream, never an error and never
  // a frame: the reader waits for more bytes.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    size_t offset = 0;
    WireFrame frame;
    std::string error;
    EXPECT_EQ(ParseWireFrame(std::string_view(wire).substr(0, cut), &offset,
                             &frame, &error),
              FrameParse::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(offset, 0u);
  }

  // Flipping any bit of the CRC-covered body (request_id + type +
  // payload) must be detected.
  for (size_t i = 8; i < wire.size(); ++i) {
    std::string bad = wire;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    size_t offset = 0;
    WireFrame frame;
    std::string error;
    EXPECT_EQ(ParseWireFrame(bad, &offset, &frame, &error),
              FrameParse::kCorrupt)
        << "flip at " << i;
    EXPECT_FALSE(error.empty());
  }

  // The intact frame round-trips.
  size_t offset = 0;
  WireFrame frame;
  std::string error;
  ASSERT_EQ(ParseWireFrame(wire, &offset, &frame, &error), FrameParse::kFrame);
  EXPECT_EQ(frame.request_id, 7u);
  EXPECT_EQ(frame.type, MessageType::kPoll);
  EXPECT_EQ(frame.payload, "payload-bytes");
  EXPECT_EQ(offset, wire.size());
}

TEST(WireProtocolTest, OversizedAndUndersizedLengthRejected) {
  // A hostile length prefix must not make the server buffer gigabytes.
  std::string huge;
  BinWriter w(&huge);
  w.U32(kMaxWireFrameBytes + 1);
  w.U32(0);
  huge.append(16, 'x');
  size_t offset = 0;
  WireFrame frame;
  std::string error;
  EXPECT_EQ(ParseWireFrame(huge, &offset, &frame, &error),
            FrameParse::kCorrupt);

  // A length too small to hold request_id + type is equally damaged.
  std::string tiny;
  BinWriter w2(&tiny);
  w2.U32(4);
  w2.U32(0);
  tiny.append(4, 'x');
  offset = 0;
  EXPECT_EQ(ParseWireFrame(tiny, &offset, &frame, &error),
            FrameParse::kCorrupt);
}

TEST(WireProtocolTest, UnknownTypeByteStaysFramedNotCorrupt) {
  // An intact frame with a type byte this build does not speak is a
  // protocol-level problem, not framing damage: the connection survives
  // and the server answers kUnknownType.
  std::string wire;
  EncodeWireFrame(9, static_cast<MessageType>(42), "zz", &wire);
  size_t offset = 0;
  WireFrame frame;
  std::string error;
  ASSERT_EQ(ParseWireFrame(wire, &offset, &frame, &error), FrameParse::kFrame);
  EXPECT_EQ(frame.request_id, 9u);
  EXPECT_EQ(frame.type, MessageType::kError);  // sentinel for "unknown"
  ASSERT_EQ(frame.payload.size(), 1u);
  EXPECT_EQ(static_cast<uint8_t>(frame.payload[0]), 42u);
}

TEST(WireProtocolTest, AssemblerReassemblesAndCorruptionIsSticky) {
  std::string wire;
  EncodeWireFrame(1, MessageType::kHello, "aaa", &wire);
  EncodeWireFrame(2, MessageType::kGoodbye, "bb", &wire);

  // Dribble the two frames in 3-byte reads: both come out whole.
  FrameAssembler dribble;
  WireFrame frame;
  std::string error;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < wire.size(); i += 3) {
    dribble.Feed(wire.data() + i, std::min<size_t>(3, wire.size() - i));
    while (dribble.Next(&frame, &error) == FrameParse::kFrame) {
      ids.push_back(frame.request_id);
    }
  }
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 1u);
  EXPECT_EQ(ids[1], 2u);
  EXPECT_EQ(dribble.buffered(), 0u);

  // A mid-message disconnect leaves buffered bytes and kNeedMore — the
  // partial frame is simply never completed; nothing was dispatched.
  FrameAssembler cut;
  cut.Feed(wire.data(), 10);
  EXPECT_EQ(cut.Next(&frame, &error), FrameParse::kNeedMore);
  EXPECT_GT(cut.buffered(), 0u);

  // Corruption is sticky: once framing is lost, later good bytes must
  // not be trusted (the reader has no way to re-find a frame boundary).
  FrameAssembler corrupt;
  std::string bad = wire;
  bad[9] = static_cast<char>(bad[9] ^ 0x01);
  corrupt.Feed(bad.data(), bad.size());
  EXPECT_EQ(corrupt.Next(&frame, &error), FrameParse::kCorrupt);
  corrupt.Feed(wire.data(), wire.size());
  EXPECT_EQ(corrupt.Next(&frame, &error), FrameParse::kCorrupt);
}

// ------------------------------------------------------- serving fixture

// A deterministic chain world: R(D, D) revealed link by link through a
// dependent access method. Apply k gives R(c{k}, c{k+1}) and grows the
// active domain by c{k+1}.
struct ChainWorld {
  Schema schema;
  DomainId d;
  RelationId r;
  AccessMethodSet acs;
  AccessMethodId m;
  std::vector<Value> c;  ///< pre-interned constants c0..cN
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

  /// Q(X) :- R(X, Y): which values verifiably have an outgoing link.
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

/// A stream snapshot reduced to comparable form. Witnesses are a
/// server-side concern and do not cross the wire; Prop 2.2 fresh
/// constants are minted per registration (their spelling differs between
/// two registries tracking the same query), so fresh bindings compare by
/// their flag, not by the minted id.
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

// --------------------------------------------------------- session layer

TEST(SessionServerTest, EndToEndParityWithDirectEngine) {
  ChainWorld world(8);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel channel(&server);
  RarClient client(&channel, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  EXPECT_FALSE(client.resumed());
  EXPECT_NE(client.token().session_id, 0u);

  Result<uint32_t> qh = client.RegisterQuery(world.BoolQuery());
  ASSERT_TRUE(qh.ok()) << qh.status().ToString();
  Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(sh.ok()) << sh.status().ToString();

  // Mirror: a direct engine fed the identical responses.
  RelevanceEngine mirror(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry mirror_reg(&mirror);
  StreamOptions retained;
  retained.retain_events = true;
  Result<StreamId> mirror_sid = mirror_reg.Register(world.KaryQuery(),
                                                    retained);
  ASSERT_TRUE(mirror_sid.ok());

  uint64_t cursor = 0;
  uint64_t events_seen = 0;
  for (int k = 0; k < 6; ++k) {
    Result<ApplyResult> applied = client.Apply(world.Link(k),
                                               world.LinkFacts(k));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->facts_added, 1u);
    EXPECT_EQ(applied->wal_sequence, 0u);  // in-memory serving
    ASSERT_TRUE(mirror.ApplyResponse(world.Link(k), world.LinkFacts(k)).ok());

    // Gap-free delivery: sequences are contiguous from the cursor.
    Result<StreamDelta> delta = client.Poll(*sh, cursor);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    for (const StreamEvent& ev : delta->events) {
      EXPECT_EQ(ev.sequence, ++events_seen);
    }
    cursor = delta->last_sequence;
    ASSERT_TRUE(client.Acknowledge(*sh, cursor).ok());
  }
  EXPECT_GT(events_seen, 0u);

  // The served snapshot equals the mirror's, binding by binding.
  Result<StreamSnapshot> served = client.Snapshot(*sh);
  ASSERT_TRUE(served.ok());
  StreamSnapshot direct = mirror_reg.Snapshot(*mirror_sid);
  EXPECT_EQ(served->bindings_tracked, direct.bindings_tracked);
  EXPECT_EQ(served->certain, direct.certain);
  EXPECT_EQ(served->relevant, direct.relevant);
  EXPECT_EQ(served->any_relevant, direct.any_relevant);
  EXPECT_EQ(SnapshotKey(world.schema, *served),
            SnapshotKey(world.schema, direct));

  ASSERT_TRUE(client.Goodbye().ok());
  EXPECT_EQ(server.num_sessions(), 0u);
  // The session is gone: the token no longer works.
  EXPECT_EQ(client.Poll(*sh, 0).status().code(),
            StatusCode::kFailedPrecondition);

  EngineStats st = engine.stats();
  EXPECT_EQ(st.server_sessions_opened, 1u);
  EXPECT_EQ(st.server_sessions_retired, 1u);
  EXPECT_EQ(st.server_requests_apply, 6u);
  EXPECT_GE(st.server_requests_poll, 6u);
}

TEST(SessionServerTest, AdmissionCapShedsWithRetryAfter) {
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.max_sessions = 1;
  opts.retry_after_ms = 75;
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel ch1(&server), ch2(&server);
  RarClient c1(&ch1, &world.schema, &world.acs);
  RarClient c2(&ch2, &world.schema, &world.acs);
  ASSERT_TRUE(c1.Hello().ok());

  Status shed = c2.Hello();
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(c2.last_error().code, WireErrorCode::kRetryLater);
  EXPECT_EQ(c2.last_error().retry_after_ms, 75u);

  // Goodbye frees the slot; the shed client's retry is admitted.
  ASSERT_TRUE(c1.Goodbye().ok());
  EXPECT_TRUE(c2.Hello().ok());
  EXPECT_EQ(engine.stats().server_sessions_shed, 1u);
}

TEST(SessionServerTest, ResumeByTokenRejectsBadNonceAndReapsIdle) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.idle_timeout_ms = 0;  // no reaping yet
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel ch(&server);
  RarClient client(&ch, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(sh.ok());
  ASSERT_TRUE(client.Apply(world.Link(0), world.LinkFacts(0)).ok());

  // "Reconnect": a new channel (new connection) resuming the same token
  // sees the same stream handle and cursor space.
  LoopbackChannel ch2(&server);
  RarClient back(&ch2, &world.schema, &world.acs);
  ASSERT_TRUE(back.Resume(client.token()).ok());
  EXPECT_TRUE(back.resumed());
  Result<StreamDelta> delta = back.Poll(*sh, 0);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->events.empty());
  EXPECT_EQ(engine.stats().server_sessions_resumed, 1u);

  // A forged or stale nonce never resumes someone's session.
  SessionToken forged = client.token();
  forged.nonce ^= 1;
  RarClient thief(&ch2, &world.schema, &world.acs);
  EXPECT_EQ(thief.Resume(forged).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(thief.last_error().code, WireErrorCode::kUnknownSession);
}

TEST(SessionServerTest, IdleSessionsAreReaped) {
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.idle_timeout_ms = 1;
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel ch(&server);
  RarClient client(&ch, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_EQ(server.num_sessions(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(server.ReapIdleSessions(), 1u);
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_EQ(client.Metrics().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.last_error().code, WireErrorCode::kUnknownSession);
  EXPECT_EQ(engine.stats().server_sessions_reaped, 1u);
}

TEST(SessionServerTest, RetentionCapEvictsCursorWithTypedResume) {
  ChainWorld world(12);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.max_backlog_events = 4;  // tight: lagging cursors fall behind
  SessionServer server(&engine, &registry, opts);

  LoopbackChannel ch(&server);
  RarClient client(&ch, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(sh.ok());

  // Never polling while the chain grows: far more than 4 events land.
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(client.Apply(world.Link(k), world.LinkFacts(k)).ok());
  }

  // The stale cursor gets the typed eviction error, carrying the horizon.
  Result<StreamDelta> stale = client.Poll(*sh, 0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.last_error().code, WireErrorCode::kCursorEvicted);
  const uint64_t horizon = client.last_error().detail;
  EXPECT_GT(horizon, 0u);

  // The documented recovery: re-snapshot (current truth), then resume
  // polling from the horizon.
  Result<StreamSnapshot> snap = client.Snapshot(*sh);
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(snap->bindings_tracked, 0u);
  Result<StreamDelta> resumed = client.Poll(*sh, horizon);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (const StreamEvent& ev : resumed->events) {
    EXPECT_GT(ev.sequence, horizon);
  }
  EXPECT_LE(resumed->events.size(), 4u);  // the cap bounds the backlog
  EXPECT_EQ(resumed->evicted_through, horizon);

  EngineStats st = engine.stats();
  EXPECT_EQ(st.server_cursor_evictions, 1u);
  EXPECT_GT(st.stream_retained_evicted, 0u);
}

TEST(SessionServerTest, UnackedBacklogRaisesHighWaterAndKeepsVerdicts) {
  ChainWorld world(12);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel ch(&server);
  RarClient client(&ch, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(sh.ok());

  // Build a backlog (no acks), then poll: the poll records it as the
  // backlog high water.
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(client.Apply(world.Link(k), world.LinkFacts(k)).ok());
  }
  ASSERT_TRUE(client.Poll(*sh, 0).ok());
  EXPECT_GT(engine.stats().server_backlog_high_water, 2u);
  ASSERT_TRUE(client.Poll(*sh, 0).ok());

  // Keep growing behind the backlog, then compare against a mirror that
  // no subscriber lags on: the per-binding verdicts must be identical.
  for (int k = 4; k < 10; ++k) {
    ASSERT_TRUE(client.Apply(world.Link(k), world.LinkFacts(k)).ok());
  }
  RelevanceEngine mirror(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry mirror_reg(&mirror);
  Result<StreamId> mirror_sid = mirror_reg.Register(world.KaryQuery(), {});
  ASSERT_TRUE(mirror_sid.ok());
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(mirror.ApplyResponse(world.Link(k), world.LinkFacts(k)).ok());
  }
  Result<StreamSnapshot> served = client.Snapshot(*sh);
  ASSERT_TRUE(served.ok());
  StreamSnapshot direct = mirror_reg.Snapshot(*mirror_sid);
  EXPECT_EQ(SnapshotKey(world.schema, *served),
            SnapshotKey(world.schema, direct));
}

TEST(SessionServerTest, EngineApplyAdmissionSurfacesAsRetryLater) {
  // A listener that parks the first apply inside the engine's in-flight
  // window, so a concurrent apply deterministically hits the admission
  // bound.
  class GateListener : public ApplyListener {
   public:
    void OnApply(const ApplyEvent&) override {
      std::unique_lock<std::mutex> lock(mu_);
      inside_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return release_; });
    }
    void AwaitInside() {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return inside_; });
    }
    void Release() {
      std::lock_guard<std::mutex> lock(mu_);
      release_ = true;
      cv_.notify_all();
    }

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool inside_ = false;
    bool release_ = false;
  };

  ChainWorld world(4);
  EngineOptions eopts;
  eopts.max_inflight_applies = 1;
  RelevanceEngine engine(world.schema, world.acs, world.conf, eopts);
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});
  GateListener gate;
  engine.AddApplyListener(&gate);

  LoopbackChannel ch1(&server), ch2(&server);
  RarClient c1(&ch1, &world.schema, &world.acs);
  RarClient c2(&ch2, &world.schema, &world.acs);
  ASSERT_TRUE(c1.Hello().ok());
  ASSERT_TRUE(c2.Hello().ok());

  std::thread first([&] {
    EXPECT_TRUE(c1.Apply(world.Link(0), world.LinkFacts(0)).ok());
  });
  gate.AwaitInside();

  Result<ApplyResult> shed = c2.Apply(world.Link(1), world.LinkFacts(1));
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(c2.last_error().code, WireErrorCode::kRetryLater);
  EXPECT_GT(c2.last_error().retry_after_ms, 0u);

  gate.Release();
  first.join();
  engine.RemoveApplyListener(&gate);

  EngineStats st = engine.stats();
  EXPECT_EQ(st.server_applies_shed, 1u);
  EXPECT_EQ(st.apply_admission_rejections, 1u);
  // The retry lands once the window is free.
  EXPECT_TRUE(c2.Apply(world.Link(1), world.LinkFacts(1)).ok());
}

TEST(SessionServerTest, MalformedPayloadsAndUnknownTypesGetTypedErrors) {
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  auto error_of = [&](MessageType type, std::string payload) {
    WireFrame req{11, type, std::move(payload)};
    std::string bytes = server.HandleFrame(req);
    size_t offset = 0;
    WireFrame resp;
    std::string perr;
    EXPECT_EQ(ParseWireFrame(bytes, &offset, &resp, &perr), FrameParse::kFrame);
    EXPECT_EQ(resp.request_id, 11u);
    EXPECT_EQ(resp.type, MessageType::kError);
    WireError e;
    EXPECT_TRUE(DecodeWireError(resp.payload, &e).ok());
    return e;
  };

  // Garbage payloads: every request type decodes defensively.
  for (MessageType t :
       {MessageType::kHello, MessageType::kRegisterQuery,
        MessageType::kRegisterStream, MessageType::kApply, MessageType::kPoll,
        MessageType::kAcknowledge, MessageType::kSnapshot,
        MessageType::kMetrics, MessageType::kGoodbye}) {
    WireError e = error_of(t, "\x01garbage");
    EXPECT_TRUE(e.code == WireErrorCode::kBadRequest ||
                e.code == WireErrorCode::kUnknownSession)
        << ToString(t) << " -> " << ToString(e.code);
  }

  // Truncated-to-empty payloads too.
  EXPECT_EQ(error_of(MessageType::kApply, "").code,
            WireErrorCode::kBadRequest);

  // A version this server does not speak.
  HelloRequest req;
  req.protocol_version = kWireProtocolVersion + 1;
  WireError ver = error_of(MessageType::kHello, EncodeHelloRequest(req));
  EXPECT_EQ(ver.code, WireErrorCode::kVersionMismatch);
  EXPECT_EQ(ver.detail, kWireProtocolVersion);

  // An unknown message type (as mapped by the frame parser).
  WireError unk = error_of(static_cast<MessageType>(42), "");
  EXPECT_EQ(unk.code, WireErrorCode::kUnknownType);

  // None of it perturbed the server: a well-formed session works.
  LoopbackChannel ch(&server);
  RarClient client(&ch, &world.schema, &world.acs);
  EXPECT_TRUE(client.Hello().ok());
  EXPECT_GT(engine.stats().server_errors, 0u);
}

TEST(SessionServerTest, MetricsOverTheWire) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  LoopbackChannel ch(&server);
  RarClient client(&ch, &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.Apply(world.Link(0), world.LinkFacts(0)).ok());

  Result<std::string> json = client.Metrics(MetricsFormat::kJson);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->front(), '{');
  EXPECT_NE(json->find("\"server\""), std::string::npos);
  EXPECT_NE(json->find("\"sessions_active\":1"), std::string::npos);

  Result<std::string> prom = client.Metrics(MetricsFormat::kPrometheus);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("rar_server_requests_total"), std::string::npos);
  EXPECT_NE(prom->find("rar_server_sessions_active 1"), std::string::npos);
  EXPECT_EQ(ExpositionProblems(*prom), "");
}

// ------------------------------------------------------------------ TCP

TEST(TcpTransportTest, EndToEndCorruptionAndMidMessageDisconnect) {
  ChainWorld world(4);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});
  TcpServer tcp(&server);
  Result<uint16_t> port = tcp.Start();
  if (!port.ok()) {
    GTEST_SKIP() << "sockets unavailable here: " << port.status().ToString();
  }

  auto channel = TcpChannel::Connect("127.0.0.1", *port);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  RarClient client(channel->get(), &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  Result<uint32_t> sh = client.RegisterStream(world.KaryQuery());
  ASSERT_TRUE(sh.ok());
  ASSERT_TRUE(client.Apply(world.Link(0), world.LinkFacts(0)).ok());
  Result<StreamDelta> delta = client.Poll(*sh, 0);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->events.empty());

  auto raw_connect = [&]() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(*port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };

  // Framing damage: the server answers one typed kBadFrame error, then
  // closes — and the engine/other connections are untouched.
  {
    int fd = raw_connect();
    const std::string garbage(16, 'X');  // length field decodes huge
    ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
              static_cast<ssize_t>(garbage.size()));
    FrameAssembler asm_;
    WireFrame frame;
    std::string error;
    char buf[4096];
    FrameParse verdict = FrameParse::kNeedMore;
    for (;;) {
      verdict = asm_.Next(&frame, &error);
      if (verdict != FrameParse::kNeedMore) break;
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      asm_.Feed(buf, static_cast<size_t>(n));
    }
    ASSERT_EQ(verdict, FrameParse::kFrame);
    EXPECT_EQ(frame.type, MessageType::kError);
    WireError e;
    ASSERT_TRUE(DecodeWireError(frame.payload, &e).ok());
    EXPECT_EQ(e.code, WireErrorCode::kBadFrame);
    EXPECT_LE(::read(fd, buf, sizeof(buf)), 0);  // server closed
    ::close(fd);
  }

  // Mid-message disconnect: half a header, then gone. The partial frame
  // is discarded; nothing reaches the engine.
  {
    int fd = raw_connect();
    ASSERT_EQ(::write(fd, "\x20\x00", 2), 2);
    ::close(fd);
  }

  // The established session rides through both incidents.
  for (int i = 0; i < 50; ++i) {
    if (engine.stats().server_bad_frames > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(engine.stats().server_bad_frames, 1u);
  EXPECT_TRUE(client.Apply(world.Link(1), world.LinkFacts(1)).ok());
  EXPECT_TRUE(client.Goodbye().ok());
  tcp.Stop();
}

// ---------------------------------------------------------- concurrency

// Pre-computes, per group, the (access, response) script a crawl of the
// group's hidden facts would produce (idempotent: safe to replay).
std::vector<std::vector<std::pair<Access, std::vector<Fact>>>> BuildScripts(
    const MultiRelationFamily& f) {
  std::vector<std::vector<std::pair<Access, std::vector<Fact>>>> scripts(
      f.group_relations.size());
  for (size_t g = 0; g < f.group_relations.size(); ++g) {
    const std::string tag = std::to_string(g);
    AccessMethodId am = f.scenario.acs.Find("a" + tag);
    AccessMethodId bm = f.scenario.acs.Find("b" + tag);
    for (const Fact& fact : f.hidden.FactsOf(f.group_relations[g][0])) {
      scripts[g].push_back({Access{am, {fact.values[0]}}, {fact}});
    }
    for (const Fact& fact : f.hidden.FactsOf(f.group_relations[g][1])) {
      scripts[g].push_back({Access{bm, {fact.values[0]}}, {fact}});
    }
  }
  return scripts;
}

/// Q_g(X) :- Ag(X, Y): the group's k-ary subscription.
UnionQuery GroupStreamQuery(const MultiRelationFamily& f, size_t g) {
  const Schema& schema = *f.scenario.schema;
  RelationId a = f.group_relations[g][0];
  DomainId dom = schema.relation(a).attributes[0].domain;
  ConjunctiveQuery cq;
  VarId x = cq.AddVar("X", dom);
  VarId y = cq.AddVar("Y", dom);
  cq.atoms.push_back(Atom{a, {Term::MakeVar(x), Term::MakeVar(y)}});
  cq.head = {x};
  UnionQuery uq;
  uq.disjuncts.push_back(cq);
  return uq;
}

// N sessions over one server: appliers replaying disjoint group scripts
// while subscribers (two per group, sharing the group's stream) poll,
// verify gap-free contiguous sequences, and acknowledge. After quiescence every
// served snapshot must equal a fresh engine fed the same responses. The
// TSan CI job runs exactly this interleaving.
TEST(ServerConcurrencyTest, ConcurrentSessionsGapFreeDeliveryAndParity) {
  constexpr int kGroups = 3;
  constexpr int kSubscribers = 2 * kGroups;
  constexpr int kApplierRounds = 8;
  MultiRelationFamily f = MakeMultiRelationFamily(kGroups, 4);
  const Scenario& s = f.scenario;
  auto scripts = BuildScripts(f);
  std::vector<UnionQuery> queries;
  for (int g = 0; g < kGroups; ++g) queries.push_back(GroupStreamQuery(f, g));

  RelevanceEngine engine(*s.schema, s.acs, s.conf);
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  std::atomic<bool> appliers_done{false};
  std::atomic<int> errors{0};
  std::vector<StreamSnapshot> finals(kSubscribers);
  std::vector<std::thread> threads;

  for (int g = 0; g < kGroups; ++g) {
    threads.emplace_back([&, g] {
      LoopbackChannel ch(&server);
      RarClient client(&ch, s.schema.get(), &s.acs);
      if (!client.Hello().ok()) {
        errors.fetch_add(1);
        return;
      }
      for (int round = 0; round < kApplierRounds; ++round) {
        for (const auto& [access, response] : scripts[g]) {
          if (!client.Apply(access, response).ok()) errors.fetch_add(1);
        }
      }
      if (!client.Goodbye().ok()) errors.fetch_add(1);
    });
  }
  for (int i = 0; i < kSubscribers; ++i) {
    threads.emplace_back([&, i] {
      LoopbackChannel ch(&server);
      RarClient client(&ch, s.schema.get(), &s.acs);
      if (!client.Hello().ok()) {
        errors.fetch_add(1);
        return;
      }
      Result<uint32_t> sh = client.RegisterStream(queries[i % kGroups]);
      if (!sh.ok()) {
        errors.fetch_add(1);
        return;
      }
      uint64_t cursor = 0;
      uint64_t expected = 0;
      int quiet_after_done = 0;
      while (quiet_after_done < 2) {
        Result<StreamDelta> delta = client.Poll(*sh, cursor);
        if (!delta.ok()) {
          errors.fetch_add(1);
          break;
        }
        for (const StreamEvent& ev : delta->events) {
          // Gap-free, in-order delivery: per-stream sequences are the
          // contiguous integers 1, 2, 3, ...
          if (ev.sequence != expected + 1) errors.fetch_add(1);
          expected = ev.sequence;
        }
        if (!delta->events.empty()) {
          cursor = delta->last_sequence;
          if (!client.Acknowledge(*sh, cursor).ok()) errors.fetch_add(1);
        } else if (appliers_done.load(std::memory_order_acquire)) {
          ++quiet_after_done;
        }
        std::this_thread::yield();
      }
      Result<StreamSnapshot> snap = client.Snapshot(*sh);
      if (snap.ok()) {
        finals[i] = std::move(*snap);
      } else {
        errors.fetch_add(1);
      }
      if (!client.Goodbye().ok()) errors.fetch_add(1);
    });
  }
  for (int g = 0; g < kGroups; ++g) threads[g].join();
  appliers_done.store(true, std::memory_order_release);
  for (size_t t = kGroups; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(errors.load(), 0);
  EXPECT_EQ(server.num_sessions(), 0u);

  // Parity: a fresh engine fed the same responses, one registry stream
  // per group, must agree with every served snapshot binding-for-binding.
  RelevanceEngine mirror(*s.schema, s.acs, s.conf, {});
  RelevanceStreamRegistry mirror_reg(&mirror);
  std::vector<StreamId> mirror_sids;
  for (int g = 0; g < kGroups; ++g) {
    Result<StreamId> sid = mirror_reg.Register(queries[g], {});
    ASSERT_TRUE(sid.ok());
    mirror_sids.push_back(*sid);
  }
  for (int g = 0; g < kGroups; ++g) {
    for (const auto& [access, response] : scripts[g]) {
      ASSERT_TRUE(mirror.ApplyResponse(access, response).ok());
    }
  }
  for (int i = 0; i < kSubscribers; ++i) {
    StreamSnapshot direct = mirror_reg.Snapshot(mirror_sids[i % kGroups]);
    EXPECT_EQ(finals[i].bindings_tracked, direct.bindings_tracked) << i;
    EXPECT_EQ(finals[i].certain, direct.certain) << i;
    EXPECT_EQ(finals[i].relevant, direct.relevant) << i;
    EXPECT_EQ(SnapshotKey(*s.schema, finals[i]),
              SnapshotKey(*s.schema, direct))
        << i;
  }

  EngineStats st = engine.stats();
  EXPECT_EQ(st.server_sessions_opened,
            static_cast<uint64_t>(kGroups + kSubscribers));
  EXPECT_EQ(st.server_sessions_retired,
            static_cast<uint64_t>(kGroups + kSubscribers));
  uint64_t expected_applies = 0;
  for (int g = 0; g < kGroups; ++g) {
    expected_applies += kApplierRounds * scripts[g].size();
  }
  EXPECT_EQ(st.server_requests_apply, expected_applies);
  EXPECT_EQ(st.server_errors, 0u);
  // Subscribers of one group share its stream: one stream per group, one
  // subscription (cursor) per subscriber.
  EXPECT_EQ(st.streams_registered, static_cast<uint64_t>(kGroups));
  EXPECT_EQ(st.stream_subscriptions, static_cast<uint64_t>(kSubscribers));
  EXPECT_EQ(registry.num_streams(), static_cast<size_t>(kGroups));
  EXPECT_EQ(registry.num_subscriptions(), static_cast<size_t>(kSubscribers));
}

TEST(TcpTransportTest, ConnectRefusedAndTimeoutAreTypedUnavailable) {
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  SessionServer server(&engine, &registry, {});

  // Borrow an ephemeral port from a live listener, then shut it down:
  // connecting to it afterwards must be refused, and the refusal must
  // surface as a typed kUnavailable — the retry-safe transport code —
  // not a hang or an Internal error.
  uint16_t dead_port = 0;
  {
    TcpServer tcp(&server);
    Result<uint16_t> port = tcp.Start();
    if (!port.ok()) {
      GTEST_SKIP() << "sockets unavailable here: " << port.status().ToString();
    }
    dead_port = *port;
    tcp.Stop();
  }

  const auto started = std::chrono::steady_clock::now();
  auto refused =
      TcpChannel::Connect("127.0.0.1", dead_port, /*connect_timeout_ms=*/500);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable)
      << refused.status().ToString();
  // A refusal answers immediately; only an unreachable host would need
  // the timeout. Either way the bound holds.
  EXPECT_LE(elapsed.count(), 2000);
}

TEST(TcpTransportTest, ReapTickRetiresIdleSessionsWithoutTraffic) {
  ChainWorld world(2);
  RelevanceEngine engine(world.schema, world.acs, world.conf, {});
  RelevanceStreamRegistry registry(&engine);
  ServerOptions opts;
  opts.idle_timeout_ms = 50;
  SessionServer server(&engine, &registry, opts);
  TcpServer tcp(&server);
  Result<uint16_t> port = tcp.Start();
  if (!port.ok()) {
    GTEST_SKIP() << "sockets unavailable here: " << port.status().ToString();
  }

  auto channel = TcpChannel::Connect("127.0.0.1", *port);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  RarClient client(channel->get(), &world.schema, &world.acs);
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_EQ(server.num_sessions(), 1u);

  // No further requests from anyone: the poll loop's own reap tick must
  // retire the idle session (before this tick existed, a quiet server
  // held idle sessions until the next Hello happened to sweep them).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server.num_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(server.num_sessions(), 0u);
  EXPECT_GE(engine.stats().server_sessions_reaped, 1u);
}

}  // namespace
}  // namespace rar
