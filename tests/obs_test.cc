// Unit tests for src/obs/: histogram bucket boundaries and percentile
// math against a sorted-vector oracle, trace-ring wraparound and
// concurrent-writer integrity (meaningful under TSan), JsonWriter
// escaping, and exporter output validity/round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exposition_check.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "relational/schema.h"

namespace rar {
namespace {

// Deterministic 64-bit generator (splitmix64) so oracle comparisons are
// reproducible without seeding real RNG state.
uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Minimal recursive-descent JSON validator: accepts exactly the grammar
// the exporter claims to emit. Returns true iff `s` is one well-formed
// JSON value with nothing trailing.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !isxdigit(s_[pos_])) return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() && isdigit(s_[pos_])) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (pos_ >= s_.size() || !isdigit(s_[pos_])) return false;
      while (pos_ < s_.size() && isdigit(s_[pos_])) ++pos_;
    }
    return pos_ > start && isdigit(s_[pos_ - 1]);
  }
  bool Literal(const char* lit) {
    size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ------------------------------------------------------------- histogram

TEST(HistogramTest, BucketBoundariesContainTheirValues) {
  // Every probed value must land in a bucket whose [lower, upper] range
  // contains it, and indices must be monotone in the value.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 64; ++v) probes.push_back(v);
  for (int shift = 3; shift < 64; ++shift) {
    uint64_t base = 1ull << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
    probes.push_back(base + (base >> 1));
  }
  probes.push_back(UINT64_MAX);
  uint64_t state = 42;
  for (int i = 0; i < 1000; ++i) probes.push_back(NextRand(&state));

  std::sort(probes.begin(), probes.end());
  int prev_index = -1;
  for (uint64_t v : probes) {
    int idx = Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kNumBuckets);
    EXPECT_GE(idx, prev_index) << "index not monotone at v=" << v;
    prev_index = idx;
    EXPECT_LE(Histogram::BucketLowerBound(idx), v);
    EXPECT_GE(Histogram::BucketUpperBound(idx), v);
  }
}

TEST(HistogramTest, SmallValuesGetExactUnitBuckets) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    int idx = Histogram::BucketIndex(v);
    EXPECT_EQ(Histogram::BucketLowerBound(idx), v);
    EXPECT_EQ(Histogram::BucketUpperBound(idx), v);
  }
}

TEST(HistogramTest, BucketRelativeWidthBounded) {
  // The log-linear design bounds (upper - lower) <= lower / 2^kSubBits
  // for every non-unit bucket: that is the 12.5% quantile error claim.
  for (int idx = Histogram::kSubBuckets; idx < Histogram::kNumBuckets; ++idx) {
    uint64_t lo = Histogram::BucketLowerBound(idx);
    uint64_t hi = Histogram::BucketUpperBound(idx);
    ASSERT_LE(lo, hi);
    EXPECT_LE(hi - lo, lo / Histogram::kSubBuckets)
        << "bucket " << idx << " too wide: [" << lo << ", " << hi << "]";
  }
}

TEST(HistogramTest, PercentileMatchesSortedVectorOracle) {
  Histogram h;
  std::vector<uint64_t> values;
  uint64_t state = 7;
  for (int i = 0; i < 5000; ++i) {
    // Mix of magnitudes: exercises unit buckets through high exponents.
    uint64_t v = NextRand(&state) >> (NextRand(&state) % 56);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.max, values.back());

  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    // The documented estimator contract: rank = ceil(p% of count),
    // 1-based (same formula, so the oracle names the same order
    // statistic).
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    if (rank > values.size()) rank = values.size();
    uint64_t oracle = values[rank - 1];
    uint64_t est = snap.Percentile(p);
    // The estimator reports the upper bound of the oracle's bucket
    // (clamped to max): never below the true value, never more than one
    // bucket width above it. Subtractive form: oracle + oracle/8 can
    // wrap uint64 for top-bucket oracles.
    EXPECT_GE(est, oracle) << "p=" << p;
    EXPECT_LE(est - oracle, oracle / Histogram::kSubBuckets + 1) << "p=" << p;
  }
  EXPECT_EQ(snap.Percentile(100.0), values.back());
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(50), 0u);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(HistogramTest, MergeEqualsRecordingIntoOne) {
  Histogram a, b, both;
  uint64_t state = 99;
  for (int i = 0; i < 500; ++i) {
    uint64_t v = NextRand(&state) >> (i % 48);
    (i % 2 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  HistogramSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  HistogramSnapshot oracle = both.Snapshot();
  EXPECT_EQ(merged.count, oracle.count);
  EXPECT_EQ(merged.sum, oracle.sum);
  EXPECT_EQ(merged.max, oracle.max);
  EXPECT_EQ(merged.buckets, oracle.buckets);
}

TEST(HistogramTest, ConcurrentRecordersLoseNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.max, static_cast<uint64_t>(kThreads) * kPerThread - 1);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(HistogramTest, ScopedTimerRecordsOnce) {
  Histogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
  { ScopedTimer t(nullptr); }  // disabled: must not crash or record
  EXPECT_EQ(h.count(), 1u);
}

// ----------------------------------------------------------- trace ring

TEST(TraceTest, SamplePeriodZeroRecordsNothing) {
  TraceBuffer buf(128, 0);
  EXPECT_FALSE(buf.enabled());
  EXPECT_FALSE(buf.ShouldSample());
  EXPECT_EQ(buf.total_recorded(), 0u);
  // A span over a disabled buffer must not record on destruction.
  { TraceSpan span(&buf, TraceEventKind::kCheck); }
  EXPECT_EQ(buf.total_recorded(), 0u);
}

TEST(TraceTest, SamplePeriodNKeepsEveryNth) {
  TraceBuffer buf(128, 4);
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    if (buf.ShouldSample()) ++sampled;
  }
  EXPECT_EQ(sampled, 25);
}

TEST(TraceTest, WraparoundKeepsLastCapacityEventsInOrder) {
  TraceBuffer buf(64, 1);
  ASSERT_EQ(buf.capacity(), 64u);
  constexpr uint64_t kTotal = 200;
  for (uint64_t i = 0; i < kTotal; ++i) {
    TraceEvent e;
    e.kind = TraceEventKind::kApply;
    e.id = static_cast<uint32_t>(i);
    e.a = i;
    e.b = ~i;
    buf.Record(e);
  }
  EXPECT_EQ(buf.total_recorded(), kTotal);

  std::vector<TraceEvent> events = buf.LastEvents(1000);
  ASSERT_EQ(events.size(), buf.capacity());
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // Oldest first: the window is exactly the last `capacity` records.
    EXPECT_EQ(e.seq, kTotal - buf.capacity() + i);
    EXPECT_EQ(e.kind, TraceEventKind::kApply);
    // Payload words travelled together (seq, id and a/b all agree).
    EXPECT_EQ(e.id, static_cast<uint32_t>(e.seq));
    EXPECT_EQ(e.a, e.seq);
    EXPECT_EQ(e.b, ~e.seq);
  }
}

TEST(TraceTest, LastEventsSmallerWindow) {
  TraceBuffer buf(64, 1);
  for (uint64_t i = 0; i < 10; ++i) {
    TraceEvent e;
    e.kind = TraceEventKind::kWave;
    e.id2 = static_cast<uint32_t>(i);
    buf.Record(e);
  }
  std::vector<TraceEvent> events = buf.LastEvents(3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id2, 7u);
  EXPECT_EQ(events[2].id2, 9u);
}

TEST(TraceTest, ConcurrentWritersNeverTearSlots) {
  // Writers lap the ring many times over; every event a reader returns
  // must be internally consistent (a/b mirror each other), and nothing
  // may be double-counted or lost from the global ticket.
  TraceBuffer buf(128, 1);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&buf, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent e;
        e.kind = TraceEventKind::kCheck;
        e.id = static_cast<uint32_t>(t);
        e.a = i;
        e.b = ~i;
        buf.Record(e);
      }
    });
  }
  // Concurrent reader: events it sees mid-run must already be coherent.
  std::thread reader([&buf] {
    for (int i = 0; i < 50; ++i) {
      for (const TraceEvent& e : buf.LastEvents(64)) {
        if (e.kind != TraceEventKind::kCheck) continue;
        EXPECT_EQ(e.b, ~e.a);
      }
    }
  });
  for (auto& th : threads) th.join();
  reader.join();

  EXPECT_EQ(buf.total_recorded(), kThreads * kPerThread);
  std::vector<TraceEvent> events = buf.LastEvents(buf.capacity());
  // Quiesced: no in-flight writers, so nothing may be torn/dropped.
  ASSERT_EQ(events.size(), buf.capacity());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].b, ~events[i].a);
    EXPECT_LT(events[i].id, static_cast<uint32_t>(kThreads));
    if (i > 0) {
      EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    }
  }
}

TEST(TraceTest, SpanFillsEventAndRecordsDuration) {
  TraceBuffer buf(64, 1);
  {
    TraceSpan span(&buf, TraceEventKind::kCheck);
    ASSERT_TRUE(span.active());
    span.event().id = 17;
    span.event().flag_a = true;
  }
  std::vector<TraceEvent> events = buf.LastEvents(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kCheck);
  EXPECT_EQ(events[0].id, 17u);
  EXPECT_TRUE(events[0].flag_a);
}

TEST(TraceTest, DumpJsonIsValidAndTyped) {
  TraceBuffer buf(64, 1);
  TraceEvent apply;
  apply.kind = TraceEventKind::kApply;
  apply.id = 1;
  apply.id2 = 3;
  apply.a = 10;
  apply.b = 7;
  apply.flag_a = true;
  buf.Record(apply);
  TraceEvent wave;
  wave.kind = TraceEventKind::kWave;
  wave.detail = static_cast<uint8_t>(WaveFallbackReason::kAdomGrowth);
  buf.Record(wave);
  TraceEvent check;
  check.kind = TraceEventKind::kCheck;
  check.flag_b = true;
  buf.Record(check);

  std::string json = buf.DumpJson(10);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"apply\""), std::string::npos);
  EXPECT_NE(json.find("\"adom_growth\""), std::string::npos);
  EXPECT_NE(json.find("\"check\""), std::string::npos);
}

// ----------------------------------------------------------- JsonWriter

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(JsonWriter::Escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriterTest, CommasAndNestingComeOutValid) {
  JsonWriter w;
  w.BeginObject()
      .Field("int", static_cast<uint64_t>(7))
      .Field("neg", static_cast<int64_t>(-3))
      .Field("str", "he \"said\"\n")
      .Field("flag", true);
  w.Key("arr").BeginArray().Value(1).Value(2).Value(3).EndArray();
  w.Key("nested").BeginObject().Field("x", 1.5).EndObject();
  w.Key("empty").BeginObject().EndObject();
  w.EndObject();
  const std::string& s = w.str();
  EXPECT_TRUE(JsonChecker(s).Valid()) << s;
  EXPECT_EQ(s,
            "{\"int\":7,\"neg\":-3,\"str\":\"he \\\"said\\\"\\n\","
            "\"flag\":true,\"arr\":[1,2,3],\"nested\":{\"x\":1.5},"
            "\"empty\":{}}");
}

TEST(JsonWriterTest, DoublesAreFixedPointAndTrimmed) {
  auto render = [](double v) {
    JsonWriter w;
    w.Value(v);
    return w.str();
  };
  EXPECT_EQ(render(0.0), "0.0");
  EXPECT_EQ(render(1.5), "1.5");
  EXPECT_EQ(render(2.0), "2.0");
  EXPECT_EQ(render(0.125), "0.125");
  EXPECT_EQ(render(1234567.0), "1234567.0");
  // Never scientific notation, even for tiny values.
  EXPECT_EQ(render(1e-9), "0.0");
}

// ------------------------------------------------------------- exporter

// Every scalar and every histogram is set, each to its own value, so a
// renderer that reads the wrong member or drops one shows up in the
// golden comparison below.
MetricsExport MakeSample(const Schema* schema) {
  MetricsExport m;
  EngineStats& s = m.stats;
  s.ir_checks = 7;
  s.ltr_checks = 3;
  s.uncached_ir_checks = 4;
  s.uncached_ltr_checks = 2;
  s.ir_time_ns = 4000;
  s.ltr_time_ns = 1000;
  s.cache_hits = 6;
  s.cache_misses = 6;
  s.sticky_hits = 101;
  s.cross_epoch_hits = 102;
  s.stale_invalidations = 103;
  s.wf_rejections = 104;
  s.certainty_reuse = 105;
  s.achievable_reuse = 121;
  s.producible_reuse = 106;
  s.producible_recomputes = 107;
  s.epoch_advances = 108;
  s.adom_advances = 109;
  s.facts_applied = 110;
  s.responses_applied = 111;
  s.overlapped_applies = 112;
  s.overlapped_checks = 113;
  s.batch_calls = 114;
  s.batch_items = 115;
  s.cache_entries = 116;
  s.cache_evictions = 117;
  s.frontier_pending = 118;
  s.frontier_performed = 119;
  s.apply_admission_rejections = 120;
  s.invalidations_by_relation = {2, 0, 1};

  s.streams_registered = 201;
  s.stream_subscriptions = 202;
  s.stream_bindings = 203;
  s.stream_new_bindings = 204;
  s.stream_rechecks = 11;
  s.stream_skips = 205;
  s.stream_sticky_skips = 206;
  s.stream_events = 207;
  s.stream_value_gate_skips = 5;
  s.stream_value_gate_fallback_adom = 208;
  s.stream_value_gate_fallback_dependent_ltr = 209;
  s.stream_value_gate_fallback_unconstrained = 210;
  s.stream_value_gate_semijoin = 211;
  s.stream_value_gate_newborn = 212;
  s.stream_retained_evicted = 213;
  s.stream_rechecks_by_relation = {9, 1, 1};

  s.wal_records = 301;
  s.wal_bytes = 302;
  s.wal_fsyncs = 303;
  s.wal_commit_batches = 304;
  s.wal_commit_waiters = 305;
  s.snapshots_written = 306;
  s.snapshot_bytes = 307;
  s.replay_records = 308;
  s.replay_facts = 309;
  s.wal_truncated_tails = 310;

  s.server_sessions_opened = 401;
  s.server_sessions_resumed = 402;
  s.server_sessions_retired = 403;
  s.server_sessions_reaped = 404;
  s.server_sessions_shed = 405;
  s.server_sessions_active = 406;
  s.server_requests = 407;
  s.server_requests_hello = 408;
  s.server_requests_register_query = 409;
  s.server_requests_register_stream = 410;
  s.server_requests_apply = 411;
  s.server_requests_poll = 412;
  s.server_requests_acknowledge = 413;
  s.server_requests_snapshot = 414;
  s.server_requests_metrics = 415;
  s.server_requests_ping = 416;
  s.server_errors = 417;
  s.server_bad_frames = 418;
  s.server_applies_shed = 419;
  s.server_cursor_evictions = 420;
  s.server_backlog_high_water = 421;
  s.server_dedup_hits = 422;
  s.server_dedup_stale = 423;
  s.server_deadline_rejections = 424;
  s.server_drain_sheds = 425;
  s.server_sessions_recovered = 426;
  m.schema = schema;

  // Histogram k holds the first k+1 multiples of 10(k+1); ir_decider_ns
  // is the four-sample one the spot checks read.
  HistogramSnapshot* hists[] = {
      &m.obs.ltr_decider_ns,    &m.obs.apply_ns,
      &m.obs.batch_ns,          &m.obs.wave_ns,
      &m.obs.wave_width,        &m.obs.queue_wait_ns,
      &m.obs.source_ns,         &m.obs.wal_fsync_ns,
      &m.obs.wal_commit_ns,     &m.obs.server_request_ns,
      &m.obs.server_apply_ns,   &m.obs.server_poll_ns,
      &m.obs.server_register_ns};
  for (size_t k = 0; k < std::size(hists); ++k) {
    Histogram h;
    for (uint64_t i = 1; i <= k + 1; ++i) h.Record(i * 10 * (k + 1));
    *hists[k] = h.Snapshot();
  }
  Histogram h;
  for (uint64_t v : {100ull, 200ull, 400ull, 800ull}) h.Record(v);
  m.obs.ir_decider_ns = h.Snapshot();
  return m;
}

TEST(ExportTest, JsonIsValidAndCarriesTheCounters) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  (void)*schema.AddRelation("Edge", {{"x", d}, {"y", d}});
  (void)*schema.AddRelation("Node", {{"x", d}});
  MetricsExport m = MakeSample(&schema);

  std::string json = ExportMetricsJson(m);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Counters round-trip with their exact values.
  EXPECT_NE(json.find("\"ir_checks\":7"), std::string::npos);
  EXPECT_NE(json.find("\"uncached_ir_checks\":4"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_rate\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"mean_ir_decider_ns\":1000.0"), std::string::npos);
  EXPECT_NE(json.find("\"mean_ltr_decider_ns\":500.0"), std::string::npos);
  EXPECT_NE(json.find("\"value_gate_skips\":5"), std::string::npos);
  // Attribution resolves relation names; the trailing slot is "adom".
  EXPECT_NE(json.find("\"Edge\":2"), std::string::npos);
  EXPECT_NE(json.find("\"Node\":0"), std::string::npos);
  EXPECT_NE(json.find("\"adom\":1"), std::string::npos);
  // Histogram percentiles are present under "latency".
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"ir_decider_ns\":{\"count\":4"), std::string::npos);
  // No trace key when trace_json is empty.
  EXPECT_EQ(json.find("\"trace\""), std::string::npos);
}

TEST(ExportTest, JsonEmbedsTraceDump) {
  TraceBuffer buf(64, 1);
  TraceEvent e;
  e.kind = TraceEventKind::kApply;
  e.id = 0;
  buf.Record(e);
  MetricsExport m;
  m.trace_json = buf.DumpJson(10);
  std::string json = ExportMetricsJson(m);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"trace\":["), std::string::npos);
}

TEST(ExportTest, PrometheusRendersTheSameMetricSet) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  (void)*schema.AddRelation("Edge", {{"x", d}, {"y", d}});
  (void)*schema.AddRelation("Node", {{"x", d}});
  MetricsExport m = MakeSample(&schema);

  std::string text = ExportMetricsPrometheus(m);
  EXPECT_NE(text.find("# TYPE rar_engine_ir_checks_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rar_engine_ir_checks_total 7"), std::string::npos);
  // Gauges carry no _total suffix.
  EXPECT_NE(text.find("# TYPE rar_engine_cache_entries gauge"),
            std::string::npos);
  EXPECT_EQ(text.find("rar_engine_cache_entries_total"), std::string::npos);
  EXPECT_NE(text.find("rar_stream_value_gate_skips_total 5"),
            std::string::npos);
  // Attribution series labelled by relation name.
  EXPECT_NE(text.find("rar_engine_invalidations_by_relation_total{"
                      "relation=\"Edge\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("relation=\"adom\"} 1"), std::string::npos);
  // Histograms render as summaries with quantiles plus count/sum/max.
  EXPECT_NE(text.find("# TYPE rar_ir_decider_ns summary"), std::string::npos);
  EXPECT_NE(text.find("rar_ir_decider_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rar_ir_decider_ns_count 4"), std::string::npos);
  EXPECT_NE(text.find("rar_ir_decider_ns_sum 1500"), std::string::npos);
  // Every line is either a comment or `name[{labels}] value`.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // text ends with a newline
    std::string line = text.substr(start, end - start);
    if (line.rfind("# TYPE ", 0) != 0) {
      EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
    start = end + 1;
  }
}

// The exporter's output for MakeSample: JSON byte for byte, and the
// Prometheus samples and TYPE lines (HELP text is checked for form by
// PrometheusExpositionIsWellFormed, not for wording).
constexpr char kGoldenJson[] =
    R"({"engine":{"ir_checks":7,"ltr_checks":3,"uncached_ir_checks":4,)"
    R"("uncached_ltr_checks":2,"cache_hits":6,"cache_misses":6,)"
    R"("sticky_hits":101,"cross_epoch_hits":102,)"
    R"("stale_invalidations":103,"wf_rejections":104,)"
    R"("certainty_reuse":105,"achievable_reuse":121,)"
    R"("producible_reuse":106,)"
    R"("producible_recomputes":107,"epoch_advances":108,)"
    R"("adom_advances":109,"facts_applied":110,"responses_applied":111,)"
    R"("overlapped_applies":112,"overlapped_checks":113,)"
    R"("batch_calls":114,"batch_items":115,"ir_time_ns":4000,)"
    R"("ltr_time_ns":1000,"cache_entries":116,"cache_evictions":117,)"
    R"("frontier_pending":118,"frontier_performed":119,)"
    R"("apply_admission_rejections":120,"cache_hit_rate":0.5,)"
    R"("mean_ir_decider_ns":1000.0,"mean_ltr_decider_ns":500.0,)"
    R"("invalidations_by_relation":{"Edge":2,"Node":0,"adom":1}},)"
    R"("streams":{"registered":201,"subscriptions":202,"bindings":203,)"
    R"("new_bindings":204,"rechecks":11,"skips":205,"sticky_skips":206,)"
    R"("events":207,"value_gate_skips":5,"value_gate_fallback_adom":208,)"
    R"("value_gate_fallback_dependent_ltr":209,)"
    R"("value_gate_fallback_unconstrained":210,)"
    R"("value_gate_semijoin_rechecks":211,)"
    R"("value_gate_newborn_rechecks":212,"retained_evicted":213,)"
    R"("rechecks_by_relation":{"Edge":9,"Node":1,"adom":1}},)"
    R"("persist":{"wal_records":301,"wal_bytes":302,"wal_fsyncs":303,)"
    R"("wal_commit_batches":304,"wal_commit_waiters":305,)"
    R"("snapshots_written":306,"snapshot_bytes":307,"replay_records":308,)"
    R"("replay_facts":309,"wal_truncated_tails":310},)"
    R"("server":{"sessions_opened":401,"sessions_resumed":402,)"
    R"("sessions_retired":403,"sessions_reaped":404,"sessions_shed":405,)"
    R"("sessions_active":406,"requests":407,"requests_hello":408,)"
    R"("requests_register_query":409,"requests_register_stream":410,)"
    R"("requests_apply":411,"requests_poll":412,)"
    R"("requests_acknowledge":413,"requests_snapshot":414,)"
    R"("requests_metrics":415,"requests_ping":416,"errors":417,)"
    R"("bad_frames":418,"applies_shed":419,"cursor_evictions":420,)"
    R"("backlog_high_water":421,"dedup_hits":422,"dedup_stale":423,)"
    R"("deadline_rejections":424,"drain_sheds":425,)"
    R"("sessions_recovered":426},"latency":{"ir_decider_ns":{"count":4,)"
    R"("mean":375.0,"p50":207,"p90":800,"p99":800,"max":800},)"
    R"("ltr_decider_ns":{"count":1,"mean":10.0,"p50":10,"p90":10,)"
    R"("p99":10,"max":10},"apply_ns":{"count":2,"mean":30.0,"p50":21,)"
    R"("p90":40,"p99":40,"max":40},"batch_ns":{"count":3,"mean":60.0,)"
    R"("p50":63,"p90":90,"p99":90,"max":90},"wave_ns":{"count":4,)"
    R"("mean":100.0,"p50":87,"p90":160,"p99":160,"max":160},)"
    R"("wave_width":{"count":5,"mean":150.0,"p50":159,"p90":250,)"
    R"("p99":250,"max":250},"queue_wait_ns":{"count":6,"mean":210.0,)"
    R"("p50":191,"p90":360,"p99":360,"max":360},"source_ns":{"count":7,)"
    R"("mean":280.0,"p50":287,"p90":490,"p99":490,"max":490},)"
    R"("wal_fsync_ns":{"count":8,"mean":360.0,"p50":351,"p90":640,)"
    R"("p99":640,"max":640},"wal_commit_ns":{"count":9,"mean":450.0,)"
    R"("p50":479,"p90":810,"p99":810,"max":810},)"
    R"("server_request_ns":{"count":10,"mean":550.0,"p50":511,"p90":959,)"
    R"("p99":1000,"max":1000},"server_apply_ns":{"count":11,"mean":660.0,)"
    R"("p50":703,"p90":1151,"p99":1210,"max":1210},)"
    R"("server_poll_ns":{"count":12,"mean":780.0,"p50":767,"p90":1407,)"
    R"("p99":1440,"max":1440},"server_register_ns":{"count":13,)"
    R"("mean":910.0,"p50":959,"p90":1663,"p99":1690,"max":1690}}})";

constexpr char kGoldenPrometheus[] = R"(# TYPE rar_engine_ir_checks_total counter
rar_engine_ir_checks_total 7
# TYPE rar_engine_ltr_checks_total counter
rar_engine_ltr_checks_total 3
# TYPE rar_engine_uncached_ir_checks_total counter
rar_engine_uncached_ir_checks_total 4
# TYPE rar_engine_uncached_ltr_checks_total counter
rar_engine_uncached_ltr_checks_total 2
# TYPE rar_engine_cache_hits_total counter
rar_engine_cache_hits_total 6
# TYPE rar_engine_cache_misses_total counter
rar_engine_cache_misses_total 6
# TYPE rar_engine_sticky_hits_total counter
rar_engine_sticky_hits_total 101
# TYPE rar_engine_cross_epoch_hits_total counter
rar_engine_cross_epoch_hits_total 102
# TYPE rar_engine_stale_invalidations_total counter
rar_engine_stale_invalidations_total 103
# TYPE rar_engine_wf_rejections_total counter
rar_engine_wf_rejections_total 104
# TYPE rar_engine_certainty_reuse_total counter
rar_engine_certainty_reuse_total 105
# TYPE rar_engine_achievable_reuse_total counter
rar_engine_achievable_reuse_total 121
# TYPE rar_engine_producible_reuse_total counter
rar_engine_producible_reuse_total 106
# TYPE rar_engine_producible_recomputes_total counter
rar_engine_producible_recomputes_total 107
# TYPE rar_engine_epoch_advances_total counter
rar_engine_epoch_advances_total 108
# TYPE rar_engine_adom_advances_total counter
rar_engine_adom_advances_total 109
# TYPE rar_engine_facts_applied_total counter
rar_engine_facts_applied_total 110
# TYPE rar_engine_responses_applied_total counter
rar_engine_responses_applied_total 111
# TYPE rar_engine_overlapped_applies_total counter
rar_engine_overlapped_applies_total 112
# TYPE rar_engine_overlapped_checks_total counter
rar_engine_overlapped_checks_total 113
# TYPE rar_engine_batch_calls_total counter
rar_engine_batch_calls_total 114
# TYPE rar_engine_batch_items_total counter
rar_engine_batch_items_total 115
# TYPE rar_engine_ir_time_ns_total counter
rar_engine_ir_time_ns_total 4000
# TYPE rar_engine_ltr_time_ns_total counter
rar_engine_ltr_time_ns_total 1000
# TYPE rar_engine_cache_entries gauge
rar_engine_cache_entries 116
# TYPE rar_engine_cache_evictions_total counter
rar_engine_cache_evictions_total 117
# TYPE rar_engine_frontier_pending gauge
rar_engine_frontier_pending 118
# TYPE rar_engine_frontier_performed gauge
rar_engine_frontier_performed 119
# TYPE rar_stream_registered gauge
rar_stream_registered 201
# TYPE rar_stream_subscriptions gauge
rar_stream_subscriptions 202
# TYPE rar_stream_bindings gauge
rar_stream_bindings 203
# TYPE rar_stream_new_bindings_total counter
rar_stream_new_bindings_total 204
# TYPE rar_stream_rechecks_total counter
rar_stream_rechecks_total 11
# TYPE rar_stream_skips_total counter
rar_stream_skips_total 205
# TYPE rar_stream_sticky_skips_total counter
rar_stream_sticky_skips_total 206
# TYPE rar_stream_events_total counter
rar_stream_events_total 207
# TYPE rar_stream_value_gate_skips_total counter
rar_stream_value_gate_skips_total 5
# TYPE rar_stream_value_gate_fallback_adom_total counter
rar_stream_value_gate_fallback_adom_total 208
# TYPE rar_stream_value_gate_fallback_dependent_ltr_total counter
rar_stream_value_gate_fallback_dependent_ltr_total 209
# TYPE rar_stream_value_gate_fallback_unconstrained_total counter
rar_stream_value_gate_fallback_unconstrained_total 210
# TYPE rar_stream_value_gate_semijoin_rechecks_total counter
rar_stream_value_gate_semijoin_rechecks_total 211
# TYPE rar_stream_value_gate_newborn_rechecks_total counter
rar_stream_value_gate_newborn_rechecks_total 212
# TYPE rar_stream_retained_evicted_total counter
rar_stream_retained_evicted_total 213
# TYPE rar_persist_wal_records_total counter
rar_persist_wal_records_total 301
# TYPE rar_persist_wal_bytes_total counter
rar_persist_wal_bytes_total 302
# TYPE rar_persist_wal_fsyncs_total counter
rar_persist_wal_fsyncs_total 303
# TYPE rar_persist_wal_commit_batches_total counter
rar_persist_wal_commit_batches_total 304
# TYPE rar_persist_wal_commit_waiters_total counter
rar_persist_wal_commit_waiters_total 305
# TYPE rar_persist_snapshots_written_total counter
rar_persist_snapshots_written_total 306
# TYPE rar_persist_snapshot_bytes gauge
rar_persist_snapshot_bytes 307
# TYPE rar_persist_replay_records_total counter
rar_persist_replay_records_total 308
# TYPE rar_persist_replay_facts_total counter
rar_persist_replay_facts_total 309
# TYPE rar_persist_wal_truncated_tails_total counter
rar_persist_wal_truncated_tails_total 310
# TYPE rar_engine_apply_admission_rejections_total counter
rar_engine_apply_admission_rejections_total 120
# TYPE rar_server_sessions_opened_total counter
rar_server_sessions_opened_total 401
# TYPE rar_server_sessions_resumed_total counter
rar_server_sessions_resumed_total 402
# TYPE rar_server_sessions_retired_total counter
rar_server_sessions_retired_total 403
# TYPE rar_server_sessions_reaped_total counter
rar_server_sessions_reaped_total 404
# TYPE rar_server_sessions_shed_total counter
rar_server_sessions_shed_total 405
# TYPE rar_server_sessions_active gauge
rar_server_sessions_active 406
# TYPE rar_server_requests_total counter
rar_server_requests_total 407
# TYPE rar_server_requests_hello_total counter
rar_server_requests_hello_total 408
# TYPE rar_server_requests_register_query_total counter
rar_server_requests_register_query_total 409
# TYPE rar_server_requests_register_stream_total counter
rar_server_requests_register_stream_total 410
# TYPE rar_server_requests_apply_total counter
rar_server_requests_apply_total 411
# TYPE rar_server_requests_poll_total counter
rar_server_requests_poll_total 412
# TYPE rar_server_requests_acknowledge_total counter
rar_server_requests_acknowledge_total 413
# TYPE rar_server_requests_snapshot_total counter
rar_server_requests_snapshot_total 414
# TYPE rar_server_requests_metrics_total counter
rar_server_requests_metrics_total 415
# TYPE rar_server_requests_ping_total counter
rar_server_requests_ping_total 416
# TYPE rar_server_errors_total counter
rar_server_errors_total 417
# TYPE rar_server_bad_frames_total counter
rar_server_bad_frames_total 418
# TYPE rar_server_applies_shed_total counter
rar_server_applies_shed_total 419
# TYPE rar_server_cursor_evictions_total counter
rar_server_cursor_evictions_total 420
# TYPE rar_server_backlog_high_water gauge
rar_server_backlog_high_water 421
# TYPE rar_server_dedup_hits_total counter
rar_server_dedup_hits_total 422
# TYPE rar_server_dedup_stale_total counter
rar_server_dedup_stale_total 423
# TYPE rar_server_deadline_rejections_total counter
rar_server_deadline_rejections_total 424
# TYPE rar_server_drain_sheds_total counter
rar_server_drain_sheds_total 425
# TYPE rar_server_sessions_recovered_total counter
rar_server_sessions_recovered_total 426
# TYPE rar_engine_invalidations_by_relation_total counter
rar_engine_invalidations_by_relation_total{relation="Edge"} 2
rar_engine_invalidations_by_relation_total{relation="Node"} 0
rar_engine_invalidations_by_relation_total{relation="adom"} 1
# TYPE rar_stream_rechecks_by_relation_total counter
rar_stream_rechecks_by_relation_total{relation="Edge"} 9
rar_stream_rechecks_by_relation_total{relation="Node"} 1
rar_stream_rechecks_by_relation_total{relation="adom"} 1
# TYPE rar_ir_decider_ns summary
rar_ir_decider_ns{quantile="0.5"} 207
rar_ir_decider_ns{quantile="0.9"} 800
rar_ir_decider_ns{quantile="0.99"} 800
rar_ir_decider_ns_sum 1500
rar_ir_decider_ns_count 4
# TYPE rar_ir_decider_ns_max gauge
rar_ir_decider_ns_max 800
# TYPE rar_ltr_decider_ns summary
rar_ltr_decider_ns{quantile="0.5"} 10
rar_ltr_decider_ns{quantile="0.9"} 10
rar_ltr_decider_ns{quantile="0.99"} 10
rar_ltr_decider_ns_sum 10
rar_ltr_decider_ns_count 1
# TYPE rar_ltr_decider_ns_max gauge
rar_ltr_decider_ns_max 10
# TYPE rar_apply_ns summary
rar_apply_ns{quantile="0.5"} 21
rar_apply_ns{quantile="0.9"} 40
rar_apply_ns{quantile="0.99"} 40
rar_apply_ns_sum 60
rar_apply_ns_count 2
# TYPE rar_apply_ns_max gauge
rar_apply_ns_max 40
# TYPE rar_batch_ns summary
rar_batch_ns{quantile="0.5"} 63
rar_batch_ns{quantile="0.9"} 90
rar_batch_ns{quantile="0.99"} 90
rar_batch_ns_sum 180
rar_batch_ns_count 3
# TYPE rar_batch_ns_max gauge
rar_batch_ns_max 90
# TYPE rar_wave_ns summary
rar_wave_ns{quantile="0.5"} 87
rar_wave_ns{quantile="0.9"} 160
rar_wave_ns{quantile="0.99"} 160
rar_wave_ns_sum 400
rar_wave_ns_count 4
# TYPE rar_wave_ns_max gauge
rar_wave_ns_max 160
# TYPE rar_wave_width summary
rar_wave_width{quantile="0.5"} 159
rar_wave_width{quantile="0.9"} 250
rar_wave_width{quantile="0.99"} 250
rar_wave_width_sum 750
rar_wave_width_count 5
# TYPE rar_wave_width_max gauge
rar_wave_width_max 250
# TYPE rar_queue_wait_ns summary
rar_queue_wait_ns{quantile="0.5"} 191
rar_queue_wait_ns{quantile="0.9"} 360
rar_queue_wait_ns{quantile="0.99"} 360
rar_queue_wait_ns_sum 1260
rar_queue_wait_ns_count 6
# TYPE rar_queue_wait_ns_max gauge
rar_queue_wait_ns_max 360
# TYPE rar_source_ns summary
rar_source_ns{quantile="0.5"} 287
rar_source_ns{quantile="0.9"} 490
rar_source_ns{quantile="0.99"} 490
rar_source_ns_sum 1960
rar_source_ns_count 7
# TYPE rar_source_ns_max gauge
rar_source_ns_max 490
# TYPE rar_wal_fsync_ns summary
rar_wal_fsync_ns{quantile="0.5"} 351
rar_wal_fsync_ns{quantile="0.9"} 640
rar_wal_fsync_ns{quantile="0.99"} 640
rar_wal_fsync_ns_sum 2880
rar_wal_fsync_ns_count 8
# TYPE rar_wal_fsync_ns_max gauge
rar_wal_fsync_ns_max 640
# TYPE rar_wal_commit_ns summary
rar_wal_commit_ns{quantile="0.5"} 479
rar_wal_commit_ns{quantile="0.9"} 810
rar_wal_commit_ns{quantile="0.99"} 810
rar_wal_commit_ns_sum 4050
rar_wal_commit_ns_count 9
# TYPE rar_wal_commit_ns_max gauge
rar_wal_commit_ns_max 810
# TYPE rar_server_request_ns summary
rar_server_request_ns{quantile="0.5"} 511
rar_server_request_ns{quantile="0.9"} 959
rar_server_request_ns{quantile="0.99"} 1000
rar_server_request_ns_sum 5500
rar_server_request_ns_count 10
# TYPE rar_server_request_ns_max gauge
rar_server_request_ns_max 1000
# TYPE rar_server_apply_ns summary
rar_server_apply_ns{quantile="0.5"} 703
rar_server_apply_ns{quantile="0.9"} 1151
rar_server_apply_ns{quantile="0.99"} 1210
rar_server_apply_ns_sum 7260
rar_server_apply_ns_count 11
# TYPE rar_server_apply_ns_max gauge
rar_server_apply_ns_max 1210
# TYPE rar_server_poll_ns summary
rar_server_poll_ns{quantile="0.5"} 767
rar_server_poll_ns{quantile="0.9"} 1407
rar_server_poll_ns{quantile="0.99"} 1440
rar_server_poll_ns_sum 9360
rar_server_poll_ns_count 12
# TYPE rar_server_poll_ns_max gauge
rar_server_poll_ns_max 1440
# TYPE rar_server_register_ns summary
rar_server_register_ns{quantile="0.5"} 959
rar_server_register_ns{quantile="0.9"} 1663
rar_server_register_ns{quantile="0.99"} 1690
rar_server_register_ns_sum 11830
rar_server_register_ns_count 13
# TYPE rar_server_register_ns_max gauge
rar_server_register_ns_max 1690
)";

// Lines of a Prometheus exposition without its HELP lines, as a multiset:
// the renderer may order families differently from the golden text.
std::multiset<std::string> LinesWithoutHelp(const std::string& text) {
  std::multiset<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) != 0) lines.insert(line);
  }
  return lines;
}

TEST(ExportTest, RenderersMatchTheGoldenOutput) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  (void)*schema.AddRelation("Edge", {{"x", d}, {"y", d}});
  (void)*schema.AddRelation("Node", {{"x", d}});
  MetricsExport m = MakeSample(&schema);

  EXPECT_EQ(ExportMetricsJson(m), kGoldenJson);
  EXPECT_EQ(LinesWithoutHelp(ExportMetricsPrometheus(m)),
            LinesWithoutHelp(kGoldenPrometheus));
}

TEST(ExportTest, PrometheusExpositionIsWellFormed) {
  Schema schema;
  DomainId d = schema.AddDomain("D");
  (void)*schema.AddRelation("Edge", {{"x", d}, {"y", d}});
  (void)*schema.AddRelation("Node", {{"x", d}});
  EXPECT_EQ(ExpositionProblems(ExportMetricsPrometheus(MakeSample(&schema))),
            "");
  // Without attribution vectors the relation-labelled families are absent.
  EXPECT_EQ(ExpositionProblems(ExportMetricsPrometheus(MetricsExport{})), "");
}

}  // namespace
}  // namespace rar
