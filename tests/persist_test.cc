// Durability and crash recovery (src/persist/). The load-bearing
// property: recovering a session from *any* byte prefix of its WAL —
// including prefixes that cut a record in half — yields an engine whose
// VersionVector, IR/LTR verdicts, and stream event history equal the live
// session's state as of the last intact record, and whose resumable
// stream cursors re-deliver exactly the un-acknowledged events, gap-free.
// Fault-injected I/O (torn appends, short reads, bit flips) must degrade
// to the same clean-prefix semantics, never to a poisoned replay.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/export.h"
#include "persist/durable.h"
#include "persist/io.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist/wal_format.h"
#include "stream/registry.h"

namespace rar {
namespace {

std::string TestDir(const std::string& name) {
  static uint64_t counter = 0;
  return ::testing::TempDir() + "rar_persist_" + std::to_string(::getpid()) +
         "_" + name + "_" + std::to_string(counter++);
}

void WriteRawFile(const std::string& path, std::string_view data) {
  PersistEnv* env = GetPosixEnv();
  auto file = env->NewWritableFile(path, /*append=*/false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(data.data(), data.size()).ok());
  ASSERT_TRUE((*file)->Close().ok());
}

std::string ReadRawFile(const std::string& path) {
  std::string out;
  Status st = ReadFileFully(GetPosixEnv(), path, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

// ------------------------------------------------------------ WAL format

TEST(WalFormatTest, FrameRoundTripTornTailAndCrc) {
  std::string log;
  EncodeFrame(1, WalRecordType::kApply, "alpha", &log);
  EncodeFrame(2, WalRecordType::kStreamCursor, "", &log);
  EncodeFrame(3, WalRecordType::kQueryRegister, "gamma", &log);

  size_t offset = 0;
  WalRecord rec;
  ASSERT_EQ(DecodeFrame(log, &offset, &rec), FrameResult::kRecord);
  EXPECT_EQ(rec.sequence, 1u);
  EXPECT_EQ(rec.type, WalRecordType::kApply);
  EXPECT_EQ(rec.payload, "alpha");
  ASSERT_EQ(DecodeFrame(log, &offset, &rec), FrameResult::kRecord);
  EXPECT_EQ(rec.sequence, 2u);
  EXPECT_TRUE(rec.payload.empty());
  size_t third_start = offset;
  ASSERT_EQ(DecodeFrame(log, &offset, &rec), FrameResult::kRecord);
  EXPECT_EQ(rec.sequence, 3u);
  EXPECT_EQ(DecodeFrame(log, &offset, &rec), FrameResult::kEnd);
  EXPECT_EQ(offset, log.size());

  // Every strict prefix of the third frame is a torn tail, not an error.
  for (size_t cut = third_start; cut < log.size(); ++cut) {
    size_t off = third_start;
    WalRecord torn;
    EXPECT_EQ(DecodeFrame(std::string_view(log).substr(0, cut), &off, &torn),
              FrameResult::kEnd)
        << "cut at " << cut;
    EXPECT_EQ(off, third_start);
  }

  // Any single-bit corruption of the third frame fails its CRC.
  for (size_t i = third_start; i < log.size(); ++i) {
    std::string bad = log;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    size_t off = third_start;
    WalRecord corrupt;
    EXPECT_EQ(DecodeFrame(bad, &off, &corrupt), FrameResult::kEnd)
        << "flip at " << i;
  }
}

TEST(WalFormatTest, ApplyPayloadRoundTripsByName) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  RelationId r = *schema.AddRelation("R", {{"x", d}, {"y", d}});
  AccessMethodSet acs(&schema);
  AccessMethodId mr = *acs.Add("get_r", r, {0}, /*dependent=*/true);

  Value a = schema.InternConstant("a");
  Value b = schema.InternConstant("b");
  Access access{mr, {a}};
  std::vector<Fact> response = {Fact(r, {a, b}), Fact(r, {a, a})};
  std::string payload = EncodeApplyPayload(schema, acs, access, response);

  Access got_access;
  std::vector<Fact> got_response;
  ASSERT_TRUE(
      DecodeApplyPayload(schema, acs, payload, &got_access, &got_response)
          .ok());
  EXPECT_EQ(got_access.method, mr);
  ASSERT_EQ(got_access.binding.size(), 1u);
  EXPECT_TRUE(got_access.binding[0] == a);
  ASSERT_EQ(got_response.size(), 2u);
  EXPECT_EQ(got_response[0].relation, r);
  EXPECT_TRUE(got_response[0].values[1] == b);

  // Truncated payloads are rejected, never over-read.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Access ta;
    std::vector<Fact> tr;
    EXPECT_FALSE(DecodeApplyPayload(schema, acs,
                                    std::string_view(payload).substr(0, cut),
                                    &ta, &tr)
                     .ok())
        << "cut at " << cut;
  }
}

// -------------------------------------------------------- fault injection

TEST(FaultIoTest, TornAppendShortReadAndBitFlip) {
  const std::string dir = TestDir("faultio");
  PersistEnv* posix = GetPosixEnv();
  ASSERT_TRUE(posix->CreateDir(dir).ok());

  FaultInjectingEnv fenv(posix);
  FaultPlan torn;
  torn.path_substring = "torn";
  torn.fail_appends_after_bytes = 10;
  fenv.AddPlan(torn);

  // Torn write: the first 10 bytes land, the rest of the append fails.
  auto w = fenv.NewWritableFile(dir + "/torn.bin", false);
  ASSERT_TRUE(w.ok());
  std::string data(25, 'x');
  EXPECT_FALSE((*w)->Append(data.data(), data.size()).ok());
  (void)(*w)->Close();
  EXPECT_EQ(ReadRawFile(dir + "/torn.bin").size(), 10u);

  // Short reads: every ReadAt is capped, ReadFileFully must loop.
  WriteRawFile(dir + "/short.bin", "abcdefghij");
  FaultPlan shorty;
  shorty.path_substring = "short";
  shorty.max_read_chunk = 3;
  fenv.ClearPlans();
  fenv.AddPlan(shorty);
  std::string out;
  ASSERT_TRUE(ReadFileFully(&fenv, dir + "/short.bin", &out).ok());
  EXPECT_EQ(out, "abcdefghij");

  // Bit flip: one byte is XORed on the way in.
  FaultPlan flip;
  flip.path_substring = "short";
  flip.flip_byte_at = 2;
  flip.flip_mask = 0x01;
  fenv.ClearPlans();
  fenv.AddPlan(flip);
  out.clear();
  ASSERT_TRUE(ReadFileFully(&fenv, dir + "/short.bin", &out).ok());
  EXPECT_EQ(out[2], 'c' ^ 0x01);
  EXPECT_EQ(out[0], 'a');

  // Visible-size cap: the file appears to end mid-way.
  FaultPlan cap;
  cap.path_substring = "short";
  cap.visible_size_cap = 4;
  fenv.ClearPlans();
  fenv.AddPlan(cap);
  out.clear();
  ASSERT_TRUE(ReadFileFully(&fenv, dir + "/short.bin", &out).ok());
  EXPECT_EQ(out, "abcd");
}

TEST(WalTest, AppendFlushReadBack) {
  const std::string dir = TestDir("walrt");
  PersistEnv* env = GetPosixEnv();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  {
    auto w = WalWriter::Open(env, dir, /*next_sequence=*/1, "", {});
    ASSERT_TRUE(w.ok());
    EXPECT_EQ((*w)->Append(WalRecordType::kApply, "one"), 1u);
    EXPECT_EQ((*w)->Append(WalRecordType::kApply, "two"), 2u);
    ASSERT_TRUE((*w)->Flush().ok());
  }
  auto read = ReadWal(env, dir, /*after_sequence=*/0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].payload, "one");
  EXPECT_EQ(read->records[1].payload, "two");
  EXPECT_EQ(read->truncated_tails, 0u);

  // Garbage appended to the segment is a torn tail; the valid byte count
  // lets the writer truncate-then-append.
  std::string raw = ReadRawFile(read->last_segment_path);
  WriteRawFile(read->last_segment_path, raw + "\x07garbage");
  auto reread = ReadWal(env, dir, 0);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->records.size(), 2u);
  EXPECT_EQ(reread->truncated_tails, 1u);
  EXPECT_EQ(reread->last_segment_valid_bytes, raw.size());
}

// ----------------------------------------------------- durable sessions

// Shared fixture: schema D; R(x,y), S(x); dependent methods get_r(R; x)
// and get_s(S; —); two Boolean direct queries and one k-ary two-disjunct
// stream query. The op script exercises every WAL record type, new
// active-domain values (bindings born mid-stream), a redundant response,
// and a mid-script acknowledgement.
struct PersistFixture {
  Schema schema;
  DomainId d = 0;
  RelationId r = 0, s_rel = 0;
  AccessMethodSet acs;
  AccessMethodId mr = 0, ms = 0;
  UnionQuery bq1, bq2, stream_q;
  Configuration bootstrap;

  PersistFixture() : acs(&schema) {
    d = schema.AddDomain("D");
    r = *schema.AddRelation("R", {{"x", d}, {"y", d}});
    s_rel = *schema.AddRelation("S", {{"x", d}});
    mr = *acs.Add("get_r", r, {0}, /*dependent=*/true);
    ms = *acs.Add("get_s", s_rel, {}, /*dependent=*/true);

    // bq1() :- R(X,Y), S(Y).
    {
      ConjunctiveQuery q;
      VarId x = q.AddVar("X", d);
      VarId y = q.AddVar("Y", d);
      q.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
      q.atoms.push_back(Atom{s_rel, {Term::MakeVar(y)}});
      bq1.disjuncts.push_back(q);
    }
    // bq2() :- R(a, X).
    {
      ConjunctiveQuery q;
      VarId x = q.AddVar("X", d);
      q.atoms.push_back(
          Atom{r, {Term::MakeConst(schema.InternConstant("a")),
                   Term::MakeVar(x)}});
      bq2.disjuncts.push_back(q);
    }
    // stream_q(X) :- R(X,Y), S(Y)  |  R(X,X).
    {
      ConjunctiveQuery d1;
      VarId x = d1.AddVar("X", d);
      VarId y = d1.AddVar("Y", d);
      d1.atoms.push_back(Atom{r, {Term::MakeVar(x), Term::MakeVar(y)}});
      d1.atoms.push_back(Atom{s_rel, {Term::MakeVar(y)}});
      d1.head = {x};
      ConjunctiveQuery d2;
      VarId x2 = d2.AddVar("X", d);
      d2.atoms.push_back(Atom{r, {Term::MakeVar(x2), Term::MakeVar(x2)}});
      d2.head = {x2};
      stream_q.disjuncts = {d1, d2};
    }
    EXPECT_TRUE(bq1.Validate(schema).ok());
    EXPECT_TRUE(bq2.Validate(schema).ok());
    EXPECT_TRUE(stream_q.Validate(schema).ok());

    bootstrap = Configuration(&schema);
    bootstrap.AddSeedConstant(schema.InternConstant("a"), d);
    bootstrap.AddSeedConstant(schema.InternConstant("b"), d);
  }

  Value C(const char* s) { return schema.InternConstant(s); }
  EngineOptions quiet_engine() const {
    EngineOptions eo;
    eo.num_threads = 1;
    return eo;
  }
};

/// What the live session looked like after each WAL record: the recovery
/// oracle. `events` is the cumulative stream event log (sequences dense
/// from 1); `acked` the subscriber cursor as of that record.
struct ExpectedState {
  VersionVector versions;
  std::vector<bool> certain;  ///< per direct query, registration order
  /// Per direct query: (IR relevant, LTR relevant, LTR ok) per battery
  /// access. The battery is every Access{get_r, {v}} for v in Adom(D)
  /// first-seen order plus Access{get_s, {}} — derivable identically on
  /// the recovered side.
  std::vector<std::vector<std::array<bool, 3>>> verdicts;
  bool has_stream = false;
  std::vector<StreamEvent> events;
  uint64_t acked = 0;
};

std::vector<Access> VerdictBattery(const PersistFixture& fx,
                                   RelevanceEngine& engine) {
  std::vector<Access> battery;
  for (Value v : engine.AdomValuesOf(fx.d)) {
    battery.push_back(Access{fx.mr, {v}});
  }
  battery.push_back(Access{fx.ms, {}});
  return battery;
}

ExpectedState CaptureState(const PersistFixture& fx, DurableSession& session,
                           const std::vector<StreamEvent>& events,
                           uint64_t acked, bool has_stream) {
  ExpectedState st;
  st.versions = session.engine().versions();
  std::vector<Access> battery = VerdictBattery(fx, session.engine());
  for (QueryId qid : session.direct_query_ids()) {
    st.certain.push_back(session.engine().IsCertain(qid));
    std::vector<std::array<bool, 3>> row;
    for (const Access& a : battery) {
      CheckOutcome ir = session.engine().CheckImmediate(qid, a);
      CheckOutcome ltr = session.engine().CheckLongTerm(qid, a);
      row.push_back({ir.relevant, ltr.relevant, ltr.ok()});
    }
    st.verdicts.push_back(std::move(row));
  }
  st.has_stream = has_stream;
  st.events = events;
  st.acked = acked;
  return st;
}

void ExpectStateParity(const PersistFixture& fx, const ExpectedState& want,
                       DurableSession& got, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_TRUE(got.engine().versions() == want.versions)
      << "VersionVector diverged";
  ASSERT_EQ(got.direct_query_ids().size(), want.certain.size());
  std::vector<Access> battery = VerdictBattery(fx, got.engine());
  for (size_t qi = 0; qi < want.certain.size(); ++qi) {
    QueryId qid = got.direct_query_ids()[qi];
    EXPECT_EQ(got.engine().IsCertain(qid), want.certain[qi])
        << "certainty of direct query " << qi;
    ASSERT_EQ(battery.size(), want.verdicts[qi].size());
    for (size_t ai = 0; ai < battery.size(); ++ai) {
      CheckOutcome ir = got.engine().CheckImmediate(qid, battery[ai]);
      CheckOutcome ltr = got.engine().CheckLongTerm(qid, battery[ai]);
      EXPECT_EQ(ir.relevant, want.verdicts[qi][ai][0])
          << "IR verdict, query " << qi << " access " << ai;
      EXPECT_EQ(ltr.relevant, want.verdicts[qi][ai][1])
          << "LTR verdict, query " << qi << " access " << ai;
      EXPECT_EQ(ltr.ok(), want.verdicts[qi][ai][2])
          << "LTR scope, query " << qi << " access " << ai;
    }
  }
  ASSERT_EQ(got.streams().num_streams() == 1, want.has_stream);
  if (!want.has_stream) return;

  // Resumable cursor: PollAfter(acked) re-delivers exactly the events
  // past the acknowledged sequence, gap-free and content-identical.
  Result<StreamDelta> polled = got.PollAfter(0, want.acked);
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  StreamDelta delta = std::move(polled).value();
  std::vector<StreamEvent> expect_tail;
  for (const StreamEvent& e : want.events) {
    if (e.sequence > want.acked) expect_tail.push_back(e);
  }
  ASSERT_EQ(delta.events.size(), expect_tail.size()) << "event tail size";
  uint64_t prev = want.acked;
  for (size_t i = 0; i < expect_tail.size(); ++i) {
    EXPECT_EQ(delta.events[i].sequence, prev + 1) << "sequence gap at " << i;
    prev = delta.events[i].sequence;
    EXPECT_EQ(delta.events[i].kind, expect_tail[i].kind) << "kind at " << i;
    ASSERT_EQ(delta.events[i].binding.size(), expect_tail[i].binding.size());
    for (size_t j = 0; j < expect_tail[i].binding.size(); ++j) {
      EXPECT_TRUE(delta.events[i].binding[j] == expect_tail[i].binding[j])
          << "binding value " << j << " of event " << i;
    }
  }
}

/// Runs the scripted session against `dir` and captures the oracle state
/// after every WAL record. expected[k] is the state after the first k
/// records (expected[0] = bootstrap).
std::vector<ExpectedState> RunScript(PersistFixture& fx,
                                     const std::string& dir,
                                     PersistOptions popts,
                                     StreamOptions stream_opts = {}) {
  std::vector<ExpectedState> expected;
  auto session_or = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                         popts, fx.quiet_engine());
  EXPECT_TRUE(session_or.ok()) << session_or.status().ToString();
  DurableSession& session = **session_or;

  std::vector<StreamEvent> events;
  uint64_t acked = 0;
  bool has_stream = false;
  StreamId sid = 0;
  auto capture = [&] {
    if (has_stream) {
      StreamDelta delta = session.Poll(sid);
      events.insert(events.end(), delta.events.begin(), delta.events.end());
    }
    expected.push_back(CaptureState(fx, session, events, acked, has_stream));
  };
  capture();  // expected[0]: nothing logged yet

  EXPECT_TRUE(session.RegisterQuery(fx.bq1).ok());
  capture();
  EXPECT_TRUE(session.RegisterQuery(fx.bq2).ok());
  capture();
  auto sid_or = session.RegisterStream(fx.stream_q, stream_opts);
  EXPECT_TRUE(sid_or.ok());
  sid = *sid_or;
  has_stream = true;
  capture();

  auto apply = [&](Access access, std::vector<Fact> response) {
    auto added = session.Apply(access, response);
    EXPECT_TRUE(added.ok()) << added.status().ToString();
    capture();
  };
  apply(Access{fx.mr, {fx.C("b")}}, {Fact(fx.r, {fx.C("b"), fx.C("n1")})});
  apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("n1")})});
  apply(Access{fx.mr, {fx.C("a")}},
        {Fact(fx.r, {fx.C("a"), fx.C("a")}),
         Fact(fx.r, {fx.C("a"), fx.C("n1")})});

  // Mid-script acknowledgement: the durable cursor every recovery must
  // resume from.
  acked = events.size();  // event sequences are dense from 1
  EXPECT_TRUE(session.Acknowledge(sid, acked).ok());
  capture();

  apply(Access{fx.mr, {fx.C("n1")}}, {Fact(fx.r, {fx.C("n1"), fx.C("n2")})});
  apply(Access{fx.ms, {}},
        {Fact(fx.s_rel, {fx.C("b")}), Fact(fx.s_rel, {fx.C("n2")})});
  // Redundant response: zero facts land, but the access is still marked
  // performed — the record must replay.
  apply(Access{fx.mr, {fx.C("a")}}, {Fact(fx.r, {fx.C("a"), fx.C("a")})});

  EXPECT_TRUE(session.Flush().ok());
  EXPECT_EQ(session.last_sequence() + 1, expected.size());
  return expected;
}

TEST(DurableSessionTest, CloseReopenParityAndResume) {
  PersistFixture fx;
  const std::string dir = TestDir("reopen");
  std::vector<ExpectedState> expected = RunScript(fx, dir, {});

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        {}, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE((*recovered)->recovery().from_snapshot);
  EXPECT_EQ((*recovered)->recovery().replayed_records, expected.size() - 1);
  EXPECT_EQ((*recovered)->recovery().truncated_tails, 0u);
  ExpectStateParity(fx, expected.back(), **recovered, "full reopen");

  // The recovered session keeps working: apply once more, reopen again.
  auto added = (*recovered)->Apply(Access{fx.mr, {fx.C("n2")}},
                                   {Fact(fx.r, {fx.C("n2"), fx.C("b")})});
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 1);
  VersionVector after = (*recovered)->engine().versions();
  recovered->reset();

  auto again = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                    fx.quiet_engine());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->engine().versions() == after);
}

TEST(DurableSessionTest, SnapshotPrunesToFallbackChainAndRestores) {
  PersistFixture fx;
  const std::string dir = TestDir("snapshot");
  uint64_t snap1 = 0, snap2 = 0;
  {
    std::vector<ExpectedState> expected = RunScript(fx, dir, {});
    (void)expected;
  }
  std::vector<ExpectedState> expected;
  {
    // Reopen, snapshot twice with applies in between, then two applies
    // past the second snapshot.
    auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                  fx.quiet_engine());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->WriteSnapshot().ok());
    snap1 = (*s)->last_sequence();
    ASSERT_TRUE(
        (*s)->Apply(Access{fx.mr, {fx.C("n2")}},
                    {Fact(fx.r, {fx.C("n2"), fx.C("n2")})})
            .ok());
    ASSERT_TRUE(
        (*s)->Apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("a")})}).ok());
    ASSERT_TRUE((*s)->WriteSnapshot().ok());
    snap2 = (*s)->last_sequence();
    ASSERT_TRUE(
        (*s)->Apply(Access{fx.mr, {fx.C("n2")}},
                    {Fact(fx.r, {fx.C("n2"), fx.C("a")})})
            .ok());
    ASSERT_TRUE(
        (*s)->Apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("n2")})}).ok());

    // Cleanup keeps a one-deep fallback chain: the newest two snapshots
    // and only the WAL segments holding records past the *previous*
    // snapshot. Everything older is gone.
    auto names = GetPosixEnv()->ListDir(dir);
    ASSERT_TRUE(names.ok());
    std::vector<uint64_t> wal_firsts, snap_seqs;
    for (const std::string& name : *names) {
      uint64_t n = 0;
      if (ParseWalSegmentName(name, &n)) wal_firsts.push_back(n);
      if (ParseSnapshotFileName(name, &n)) snap_seqs.push_back(n);
    }
    std::sort(wal_firsts.begin(), wal_firsts.end());
    std::sort(snap_seqs.begin(), snap_seqs.end());
    EXPECT_EQ(snap_seqs, (std::vector<uint64_t>{snap1, snap2}));
    ASSERT_EQ(wal_firsts.size(), 2u);
    EXPECT_EQ(wal_firsts[0], snap1 + 1)
        << "the log must reach back to the fallback image";
    EXPECT_EQ(wal_firsts[1], snap2 + 1);

    // Oracle state for the recovered side: cumulative events are what a
    // fresh subscriber can see, i.e. the retained (un-acked) tail.
    auto ps = (*s)->streams().DumpPersistState(0);
    ASSERT_TRUE(ps.ok());
    std::vector<StreamEvent> events = ps->retained_events;
    expected.push_back(
        CaptureState(fx, **s, events, ps->acked_sequence, true));
  }

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        {}, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery().from_snapshot);
  EXPECT_EQ((*recovered)->recovery().snapshot_sequence, snap2);
  EXPECT_EQ((*recovered)->recovery().replayed_records, 2u);
  ExpectStateParity(fx, expected.back(), **recovered, "snapshot restore");

  EngineStats stats = (*recovered)->engine().stats();
  EXPECT_EQ(stats.replay_records, 2u);
  EXPECT_GT(stats.replay_facts, 0u);
}

TEST(DurableSessionTest, SnapshotBytesIsTheNewestSnapshotsSize) {
  PersistFixture fx;
  const std::string dir = TestDir("snapshot_bytes");
  auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                fx.quiet_engine());
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->WriteSnapshot().ok());
  ASSERT_TRUE(
      (*s)->Apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("a")})}).ok());
  ASSERT_TRUE((*s)->WriteSnapshot().ok());

  // snapshot_bytes is a gauge of the last sealed image, not a running sum.
  const EngineStats stats = (*s)->engine().stats();
  EXPECT_EQ(stats.snapshots_written, 2u);
  EXPECT_EQ(stats.snapshot_bytes,
            ReadRawFile(dir + "/" + SnapshotFileName((*s)->last_sequence()))
                .size());
}

TEST(DurableSessionTest, AutoSnapshotKeepsParity) {
  PersistFixture fx;
  const std::string dir = TestDir("autosnap");
  PersistOptions popts;
  popts.snapshot_every_records = 3;
  std::vector<ExpectedState> expected = RunScript(fx, dir, popts);

  auto names = GetPosixEnv()->ListDir(dir);
  ASSERT_TRUE(names.ok());
  size_t snap_files = 0;
  for (const std::string& name : *names) {
    uint64_t n = 0;
    if (ParseSnapshotFileName(name, &n)) ++snap_files;
  }
  EXPECT_EQ(snap_files, 2u)
      << "auto-snapshots keep the newest image plus its fallback";

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        popts, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery().from_snapshot);
  ExpectStateParity(fx, expected.back(), **recovered, "auto snapshot");
}

// The keystone property: recovery from EVERY byte prefix of the WAL —
// most of them mid-record torn tails — lands exactly on the state after
// the last record that fits, with verdict parity and gap-free stream
// resume. Each prefix is written into a fresh directory under the
// original segment name and recovered with the real I/O path (including
// the tail truncation it performs).
TEST(DurableSessionTest, CrashReplayAtEveryWalPrefix) {
  PersistFixture fx;
  const std::string dir = TestDir("prefix");
  std::vector<ExpectedState> expected = RunScript(fx, dir, {});

  const std::string segment = WalSegmentName(1);
  std::string wal = ReadRawFile(dir + "/" + segment);
  ASSERT_FALSE(wal.empty());

  // Record boundaries: byte offset where each frame ends.
  std::vector<size_t> ends;
  {
    size_t offset = 0;
    WalRecord rec;
    while (DecodeFrame(wal, &offset, &rec) == FrameResult::kRecord) {
      ends.push_back(offset);
    }
    ASSERT_EQ(ends.size(), expected.size() - 1);
    ASSERT_EQ(offset, wal.size());
  }

  for (size_t cut = 0; cut <= wal.size(); ++cut) {
    const size_t intact =
        std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin();
    const std::string crash_dir = dir + "_cut" + std::to_string(cut);
    ASSERT_TRUE(GetPosixEnv()->CreateDir(crash_dir).ok());
    WriteRawFile(crash_dir + "/" + segment,
                 std::string_view(wal).substr(0, cut));

    auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap,
                                          crash_dir, {}, fx.quiet_engine());
    ASSERT_TRUE(recovered.ok())
        << "cut " << cut << ": " << recovered.status().ToString();
    EXPECT_EQ((*recovered)->recovery().replayed_records, intact);
    const bool torn =
        cut != 0 && !std::binary_search(ends.begin(), ends.end(), cut);
    EXPECT_EQ((*recovered)->recovery().truncated_tails, torn ? 1u : 0u)
        << "cut " << cut;
    ExpectStateParity(fx, expected[intact], **recovered,
                      "cut " + std::to_string(cut));
  }
}

// Bit flips inside any record must truncate replay at that record — the
// CRC turns corruption into a clean prefix, never a poisoned state.
TEST(DurableSessionTest, BitFlipTruncatesAtCorruptRecord) {
  PersistFixture fx;
  const std::string dir = TestDir("bitflip");
  std::vector<ExpectedState> expected = RunScript(fx, dir, {});

  const std::string segment = WalSegmentName(1);
  std::string wal = ReadRawFile(dir + "/" + segment);
  std::vector<size_t> ends;
  size_t offset = 0;
  WalRecord rec;
  while (DecodeFrame(wal, &offset, &rec) == FrameResult::kRecord) {
    ends.push_back(offset);
  }

  for (size_t pos = 0; pos < wal.size(); pos += 13) {
    const size_t record =
        std::upper_bound(ends.begin(), ends.end(), pos) - ends.begin();
    const std::string crash_dir = dir + "_flip" + std::to_string(pos);
    ASSERT_TRUE(GetPosixEnv()->CreateDir(crash_dir).ok());
    std::string bad = wal;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    WriteRawFile(crash_dir + "/" + segment, bad);

    auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap,
                                          crash_dir, {}, fx.quiet_engine());
    ASSERT_TRUE(recovered.ok())
        << "flip " << pos << ": " << recovered.status().ToString();
    EXPECT_EQ((*recovered)->recovery().replayed_records, record);
    EXPECT_EQ((*recovered)->recovery().truncated_tails, 1u);
    ExpectStateParity(fx, expected[record], **recovered,
                      "flip " + std::to_string(pos));
  }
}

// Short reads during recovery are invisible: readers loop.
TEST(DurableSessionTest, ShortReadsDoNotAffectRecovery) {
  PersistFixture fx;
  const std::string dir = TestDir("shortread");
  std::vector<ExpectedState> expected = RunScript(fx, dir, {});

  FaultInjectingEnv fenv(GetPosixEnv());
  FaultPlan shorty;
  shorty.max_read_chunk = 5;  // every file, every read
  fenv.AddPlan(shorty);
  PersistOptions popts;
  popts.env = &fenv;
  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        popts, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectStateParity(fx, expected.back(), **recovered, "short reads");
}

// A torn append (disk full / crash mid-write) fails the session cleanly;
// recovery from the same directory lands on the last durable prefix.
TEST(DurableSessionTest, TornAppendFailsSessionThenRecovers) {
  PersistFixture fx;
  const std::string dir = TestDir("tornappend");

  FaultInjectingEnv fenv(GetPosixEnv());
  FaultPlan torn;
  torn.path_substring = "wal-";
  torn.fail_appends_after_bytes = 220;
  fenv.AddPlan(torn);
  PersistOptions popts;
  popts.env = &fenv;
  {
    auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, popts,
                                  fx.quiet_engine());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->RegisterQuery(fx.bq1).ok());
    Status failed = Status::OK();
    for (int i = 0; i < 64 && failed.ok(); ++i) {
      std::string c = "t" + std::to_string(i);
      auto added = (*s)->Apply(Access{fx.mr, {fx.C("a")}},
                               {Fact(fx.r, {fx.C("a"), fx.C(c.c_str())})});
      failed = added.status();
    }
    ASSERT_FALSE(failed.ok()) << "the torn append must surface";
    // The WAL error is sticky: nothing later claims durability.
    EXPECT_FALSE((*s)
                     ->Apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("a")})})
                     .ok());
  }

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        {}, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // Whatever survived is a clean record prefix: replaying it again from
  // the truncated file is byte-stable.
  VersionVector first = (*recovered)->engine().versions();
  uint64_t replayed = (*recovered)->recovery().replayed_records;
  recovered->reset();
  auto again = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                    fx.quiet_engine());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->engine().versions() == first);
  EXPECT_EQ((*again)->recovery().replayed_records, replayed);
  EXPECT_EQ((*again)->recovery().truncated_tails, 0u)
      << "the first recovery already truncated the tear";
}

// Satellite: force_full_recheck streams recovered from disk agree with a
// fresh registry built over the recovered engine, binding for binding
// (positional: fresh pools differ by construction).
TEST(DurableSessionTest, ForceFullRecheckRecoveredVsFreshParity) {
  PersistFixture fx;
  const std::string dir = TestDir("ffr");
  StreamOptions sopts;
  sopts.force_full_recheck = true;
  RunScript(fx, dir, {}, sopts);

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        {}, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RelevanceEngine& engine = (*recovered)->engine();

  // A brand-new registry over the same (recovered) engine enumerates the
  // same candidate order; only the minted fresh constants differ.
  RelevanceStreamRegistry fresh(&engine);
  StreamOptions fresh_opts = sopts;
  fresh_opts.retain_events = true;  // match what DurableSession forces
  StreamId fresh_id = *fresh.Register(fx.stream_q, fresh_opts);

  StreamSnapshot got = (*recovered)->streams().Snapshot(0);
  StreamSnapshot want = fresh.Snapshot(fresh_id);
  ASSERT_EQ(got.bindings_tracked, want.bindings_tracked);
  EXPECT_EQ(got.certain, want.certain);
  EXPECT_EQ(got.relevant, want.relevant);
  EXPECT_EQ(got.any_relevant, want.any_relevant);

  // Binding *order* legitimately differs: the recovered stream grew its
  // binding set incrementally as the replay introduced n1/n2, while the
  // fresh registry enumerates the final active domain up front. Parity is
  // over the sets: concrete bindings keyed by their value tuple, fresh
  // bindings (whose minted constants differ by construction) as a
  // multiset of verdict flags.
  auto canon = [](const StreamSnapshot& snap) {
    std::vector<std::pair<std::vector<uint64_t>, std::array<bool, 3>>>
        concrete;
    std::vector<std::array<bool, 3>> fresh_flags;
    for (const BindingView& b : snap.bindings) {
      std::array<bool, 3> flags = {b.certain, b.relevant, b.unsat};
      if (b.has_fresh) {
        fresh_flags.push_back(flags);
        continue;
      }
      std::vector<uint64_t> key;
      for (Value v : b.binding) key.push_back(v.Packed());
      concrete.emplace_back(std::move(key), flags);
    }
    std::sort(concrete.begin(), concrete.end());
    std::sort(fresh_flags.begin(), fresh_flags.end());
    return std::make_pair(std::move(concrete), std::move(fresh_flags));
  };
  auto got_canon = canon(got);
  auto want_canon = canon(want);
  ASSERT_EQ(got_canon.first.size(), want_canon.first.size());
  for (size_t i = 0; i < got_canon.first.size(); ++i) {
    SCOPED_TRACE("concrete binding " + std::to_string(i));
    EXPECT_EQ(got_canon.first[i].first, want_canon.first[i].first);
    EXPECT_EQ(got_canon.first[i].second, want_canon.first[i].second);
  }
  EXPECT_EQ(got_canon.second, want_canon.second) << "fresh binding flags";
}

// The fallback the retention policy exists for: corrupt the newest
// snapshot a real session wrote and recovery must degrade to the
// retained previous image plus a longer WAL replay — full parity, no
// forged files, no data loss.
TEST(SnapshotTest, CorruptNewestImageFallsBackToOlder) {
  PersistFixture fx;
  const std::string dir = TestDir("snapfall");
  RunScript(fx, dir, {});
  uint64_t snap1 = 0, snap2 = 0;
  std::vector<ExpectedState> expected;
  {
    auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                  fx.quiet_engine());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->WriteSnapshot().ok());
    snap1 = (*s)->last_sequence();
    ASSERT_TRUE(
        (*s)->Apply(Access{fx.mr, {fx.C("n2")}},
                    {Fact(fx.r, {fx.C("n2"), fx.C("n2")})})
            .ok());
    ASSERT_TRUE((*s)->WriteSnapshot().ok());
    snap2 = (*s)->last_sequence();
    ASSERT_TRUE(
        (*s)->Apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("a")})}).ok());

    auto ps = (*s)->streams().DumpPersistState(0);
    ASSERT_TRUE(ps.ok());
    std::vector<StreamEvent> events = ps->retained_events;
    expected.push_back(
        CaptureState(fx, **s, events, ps->acked_sequence, true));
  }
  ASSERT_GT(snap2, snap1);

  // Corrupt the newest image in place (valid magic, garbage body).
  WriteRawFile(dir + "/" + SnapshotFileName(snap2),
               "RARSNP01 this is not a snapshot body");

  SnapshotState state;
  bool found = false;
  ASSERT_TRUE(LoadLatestSnapshot(GetPosixEnv(), dir, fx.schema, fx.acs,
                                 &state, &found)
                  .ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(state.last_sequence, snap1)
      << "the corrupt newer image must be skipped";

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        {}, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery().from_snapshot);
  EXPECT_EQ((*recovered)->recovery().snapshot_sequence, snap1);
  EXPECT_EQ((*recovered)->recovery().replayed_records, 2u)
      << "the WAL retained past the fallback image must bridge the gap";
  ExpectStateParity(fx, expected.back(), **recovered, "fallback restore");
}

// If no snapshot loads and the surviving WAL does not start at the
// expected first sequence, the old behavior was to truncate the first
// segment to zero and delete the rest — silent total data loss. Open
// must instead fail loudly and leave the log untouched.
TEST(DurableSessionTest, MissingSnapshotWithGappedWalFailsLoudly) {
  PersistFixture fx;
  const std::string dir = TestDir("gapfail");
  RunScript(fx, dir, {});
  uint64_t snap_seq = 0;
  {
    auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                  fx.quiet_engine());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->WriteSnapshot().ok());
    snap_seq = (*s)->last_sequence();
    ASSERT_TRUE(
        (*s)->Apply(Access{fx.mr, {fx.C("n2")}},
                    {Fact(fx.r, {fx.C("n2"), fx.C("b")})})
            .ok());
  }
  // Simulate external damage (or the pre-retention cleanup): the only
  // snapshot is unreadable and the WAL prefix it covered is gone.
  ASSERT_TRUE(GetPosixEnv()
                  ->RemoveFile(dir + "/" + WalSegmentName(1))
                  .ok());
  WriteRawFile(dir + "/" + SnapshotFileName(snap_seq), "garbage");
  const std::string tail_path = dir + "/" + WalSegmentName(snap_seq + 1);
  const std::string tail_before = ReadRawFile(tail_path);
  ASSERT_FALSE(tail_before.empty());

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        {}, fx.quiet_engine());
  ASSERT_FALSE(recovered.ok()) << "recovery must refuse a gapped log";
  EXPECT_NE(recovered.status().ToString().find("sequence gap"),
            std::string::npos)
      << recovered.status().ToString();
  // The surviving records were not truncated or deleted.
  EXPECT_EQ(ReadRawFile(tail_path), tail_before);
}

// A crash between AtomicWriteFile's tmp creation and its rename strands
// a `*.tmp` file; Open sweeps it so temp files cannot accumulate.
TEST(DurableSessionTest, StaleTmpFilesSweptOnOpen) {
  PersistFixture fx;
  const std::string dir = TestDir("tmpsweep");
  ASSERT_TRUE(GetPosixEnv()->CreateDir(dir).ok());
  const std::string stale = dir + "/" + SnapshotFileName(42) + ".tmp";
  WriteRawFile(stale, "half-written snapshot image");

  auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                fx.quiet_engine());
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto exists = GetPosixEnv()->FileExists(stale);
  ASSERT_TRUE(exists.ok());
  EXPECT_FALSE(*exists) << "stale tmp file must be swept during recovery";
}

// FsyncPolicy::kAlways really is per-commit fsync: each WaitDurable that
// isn't already covered pays its own fsync, and already-durable
// sequences don't fsync again.
TEST(WalTest, FsyncAlwaysPolicyFsyncsPerCommit) {
  const std::string dir = TestDir("walalways");
  PersistEnv* env = GetPosixEnv();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  WalWriterOptions opts;
  opts.fsync_policy = FsyncPolicy::kAlways;
  auto w = WalWriter::Open(env, dir, /*next_sequence=*/1, "", opts);
  ASSERT_TRUE(w.ok());

  uint64_t s1 = (*w)->Append(WalRecordType::kApply, "one");
  ASSERT_TRUE((*w)->WaitDurable(s1).ok());
  EXPECT_EQ((*w)->counters().fsyncs, 1u);
  ASSERT_TRUE((*w)->WaitDurable(s1).ok());
  EXPECT_EQ((*w)->counters().fsyncs, 1u) << "already durable: no new fsync";

  (*w)->Append(WalRecordType::kApply, "two");
  uint64_t s3 = (*w)->Append(WalRecordType::kApply, "three");
  ASSERT_TRUE((*w)->WaitDurable(s3).ok());
  EXPECT_EQ((*w)->counters().fsyncs, 2u);
  EXPECT_EQ((*w)->counters().commit_batches, 2u);

  auto read = ReadWal(env, dir, 0);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[2].payload, "three");
}

// Acknowledging past the last emitted sequence must be rejected — a
// cursor in the future would silently suppress delivery of events
// emitted later, and would be persisted to the WAL.
TEST(DurableSessionTest, AcknowledgeBeyondLastEmittedIsRejected) {
  PersistFixture fx;
  const std::string dir = TestDir("overack");
  auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                fx.quiet_engine());
  ASSERT_TRUE(s.ok());
  auto sid = (*s)->RegisterStream(fx.stream_q);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE((*s)
                  ->Apply(Access{fx.mr, {fx.C("a")}},
                          {Fact(fx.r, {fx.C("a"), fx.C("a")})})
                  .ok());
  StreamDelta delta = (*s)->Poll(*sid);
  const uint64_t last = delta.last_sequence;

  const uint64_t wal_before = (*s)->last_sequence();
  Status over = (*s)->Acknowledge(*sid, last + 1);
  EXPECT_FALSE(over.ok());
  EXPECT_EQ((*s)->last_sequence(), wal_before)
      << "a rejected ack must not be logged";
  EXPECT_TRUE((*s)->Acknowledge(*sid, last).ok());

  // Events emitted after the rejected over-ack are still delivered.
  ASSERT_TRUE((*s)
                  ->Apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("a")})})
                  .ok());
  StreamDelta next = (*s)->Poll(*sid);
  for (const StreamEvent& e : next.events) {
    EXPECT_GT(e.sequence, last);
  }
  EXPECT_GE(next.last_sequence, last);
}

// One shared stream, three subscriptions at different acknowledged
// cursors: two captured by a snapshot, one registered in the WAL tail
// after active-domain growth. After a crash, each one's PollAfter(acked)
// must return exactly what the session that never crashed returned.
TEST(DurableSessionTest, SharedStreamSubscriptionsRecoverAtTheirCursors) {
  PersistFixture fx;
  const std::string dir = TestDir("shared");
  struct Cursor {
    StreamId sid = 0;
    uint64_t acked = 0;
    std::vector<StreamEvent> tail;
  };
  std::vector<Cursor> cursors;
  {
    auto opened = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                       {}, fx.quiet_engine());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurableSession& session = **opened;
    auto apply = [&](Access access, std::vector<Fact> response) {
      ASSERT_TRUE(session.Apply(access, response).ok());
    };
    const StreamId s1 = *session.RegisterStream(fx.stream_q);
    apply(Access{fx.mr, {fx.C("b")}}, {Fact(fx.r, {fx.C("b"), fx.C("n1")})});
    const StreamId s2 = *session.RegisterStream(fx.stream_q);
    ASSERT_TRUE(session.Acknowledge(s1, session.Poll(s1).last_sequence).ok());
    ASSERT_TRUE(
        session.Acknowledge(s2, session.Poll(s2).last_sequence / 2).ok());
    apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("n1")})});
    ASSERT_TRUE(session.WriteSnapshot().ok());

    // The WAL tail: growth, a third registration, its acknowledgement.
    apply(Access{fx.mr, {fx.C("a")}},
          {Fact(fx.r, {fx.C("a"), fx.C("a")}),
           Fact(fx.r, {fx.C("a"), fx.C("n2")})});
    const StreamId s3 = *session.RegisterStream(fx.stream_q);
    ASSERT_TRUE(session.Acknowledge(s3, 1).ok());
    apply(Access{fx.mr, {fx.C("n1")}}, {Fact(fx.r, {fx.C("n1"), fx.C("n3")})});
    apply(Access{fx.ms, {}}, {Fact(fx.s_rel, {fx.C("n3")})});

    EXPECT_EQ(session.streams().num_streams(), 1u);
    EXPECT_EQ(session.streams().num_subscriptions(), 3u);
    for (StreamId sid : {s1, s2, s3}) {
      Cursor c;
      c.sid = sid;
      c.acked = session.streams().DumpPersistState(sid)->acked_sequence;
      Result<StreamDelta> tail = session.PollAfter(sid, c.acked);
      ASSERT_TRUE(tail.ok());
      c.tail = tail->events;
      EXPECT_FALSE(c.tail.empty());
      cursors.push_back(std::move(c));
    }
    EXPECT_NE(cursors[0].acked, cursors[1].acked);
    EXPECT_NE(cursors[1].acked, cursors[2].acked);
    ASSERT_TRUE(session.Flush().ok());
  }  // the "crash"

  auto recovered = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                        {}, fx.quiet_engine());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery().from_snapshot);
  EXPECT_EQ((*recovered)->recovery().replayed_records, 5u);
  RelevanceStreamRegistry& streams = (*recovered)->streams();
  EXPECT_EQ(streams.num_streams(), 1u);
  EXPECT_EQ(streams.num_subscriptions(), 3u);
  for (const Cursor& c : cursors) {
    SCOPED_TRACE("subscription " + std::to_string(c.sid));
    Result<StreamDelta> got = (*recovered)->PollAfter(c.sid, c.acked);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->events.size(), c.tail.size());
    for (size_t i = 0; i < c.tail.size(); ++i) {
      EXPECT_EQ(got->events[i].sequence, c.tail[i].sequence) << i;
      EXPECT_EQ(got->events[i].kind, c.tail[i].kind) << i;
      EXPECT_TRUE(got->events[i].binding == c.tail[i].binding) << i;
    }
  }
}

// A directory written before streams were shared: two registrations of
// one key in the WAL, each with its own fresh pool. It still opens; each
// registration recovers as a stream with its own pool, gap-free from 1,
// and a new registration of the key joins the first — also after a
// snapshot of that state is restored.
TEST(DurableSessionTest, PerRegistrationPoolsFromBeforeSharingRecover) {
  PersistFixture fx;
  const std::string dir = TestDir("twopools");
  PersistEnv* env = GetPosixEnv();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  const std::vector<std::string> pools = {"ck_D_first", "ck_D_second"};
  {
    auto w = WalWriter::Open(env, dir, /*next_sequence=*/1, "", {});
    ASSERT_TRUE(w.ok());
    for (const std::string& pool : pools) {
      StreamRegisterPayload p;
      p.query = fx.stream_q;
      p.options.retain_events = true;
      p.fresh_pool = {{fx.d, pool}};
      (*w)->Append(WalRecordType::kStreamRegister,
                   EncodeStreamRegisterPayload(fx.schema, p));
    }
    (*w)->Append(WalRecordType::kApply,
                 EncodeApplyPayload(fx.schema, fx.acs,
                                    Access{fx.mr, {fx.C("a")}},
                                    {Fact(fx.r, {fx.C("a"), fx.C("a")})}));
    ASSERT_TRUE((*w)->Flush().ok());
  }
  auto pool_of = [&](DurableSession& session, StreamId sid) {
    auto ps = session.streams().DumpPersistState(sid);
    EXPECT_TRUE(ps.ok());
    return ps.ok() && ps->fresh_pool.size() == 1
               ? fx.schema.ConstantSpelling(ps->fresh_pool[0].value)
               : std::string();
  };
  {
    auto s = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir, {},
                                  fx.quiet_engine());
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    DurableSession& session = **s;
    EXPECT_EQ(session.streams().num_streams(), 2u);
    std::vector<std::vector<StreamEvent>> seen;
    for (StreamId sid : {0u, 1u}) {
      EXPECT_EQ(pool_of(session, sid), pools[sid]);
      Result<StreamDelta> d = session.PollAfter(sid, 0);
      ASSERT_TRUE(d.ok());
      for (size_t i = 0; i < d->events.size(); ++i) {
        ASSERT_EQ(d->events[i].sequence, i + 1);
      }
      seen.push_back(d->events);
    }
    ASSERT_EQ(seen[0].size(), seen[1].size());
    EXPECT_FALSE(seen[0].empty());
    const StreamId joined = *session.RegisterStream(fx.stream_q);
    EXPECT_EQ(session.streams().num_streams(), 2u);
    EXPECT_EQ(pool_of(session, joined), pools[0]);
    ASSERT_TRUE(session.WriteSnapshot().ok());
  }
  auto restored = DurableSession::Open(fx.schema, fx.acs, fx.bootstrap, dir,
                                       {}, fx.quiet_engine());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE((*restored)->recovery().from_snapshot);
  EXPECT_EQ((*restored)->streams().num_streams(), 2u);
  EXPECT_EQ((*restored)->streams().num_subscriptions(), 3u);
  EXPECT_EQ(pool_of(**restored, 1), pools[1]);
  EXPECT_EQ(pool_of(**restored, 2), pools[0]);
}

// Satellite: JSON export must emit null for non-finite doubles (NaN/Inf
// literals are invalid JSON and break strict parsers downstream).
TEST(JsonWriterTest, NonFiniteDoublesRenderAsNull) {
  JsonWriter w;
  w.BeginObject()
      .Key("nan").Value(std::nan(""))
      .Key("inf").Value(std::numeric_limits<double>::infinity())
      .Key("ninf").Value(-std::numeric_limits<double>::infinity())
      .Key("ok").Value(1.5)
      .EndObject();
  const std::string json = w.str();
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ninf\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":1.5"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan,"), std::string::npos) << json;
}

}  // namespace
}  // namespace rar
