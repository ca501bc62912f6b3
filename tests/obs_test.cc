// Unit tests for src/obs/: histogram bucket boundaries and percentile
// math against a sorted-vector oracle, trace-ring wraparound and
// concurrent-writer integrity (meaningful under TSan), JsonWriter
// escaping, and exporter output validity/round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

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

MetricsExport MakeSample(const Schema* schema) {
  MetricsExport m;
  m.stats.ir_checks = 7;
  m.stats.ltr_checks = 3;
  m.stats.uncached_ir_checks = 4;
  m.stats.uncached_ltr_checks = 2;
  m.stats.ir_time_ns = 4000;
  m.stats.ltr_time_ns = 1000;
  m.stats.cache_hits = 6;
  m.stats.cache_misses = 6;
  m.stats.stream_rechecks = 11;
  m.stats.stream_value_gate_skips = 5;
  m.stats.invalidations_by_relation = {2, 0, 1};
  m.stats.stream_rechecks_by_relation = {9, 1, 1};
  m.schema = schema;
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

TEST(ExportTest, SnapshotMergeFoldsEveryHistogram) {
  EngineObservability a{ObsOptions{}};
  EngineObservability b{ObsOptions{}};
  a.ir_decider_ns.Record(100);
  a.wave_ns.Record(50);
  b.ir_decider_ns.Record(300);
  b.source_ns.Record(7);
  ObsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.ir_decider_ns.count, 2u);
  EXPECT_EQ(merged.ir_decider_ns.sum, 400u);
  EXPECT_EQ(merged.wave_ns.count, 1u);
  EXPECT_EQ(merged.source_ns.count, 1u);
}

}  // namespace
}  // namespace rar
