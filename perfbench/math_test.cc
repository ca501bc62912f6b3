// Tests of the benchmark's own math: nearest-rank percentiles against a
// sorted oracle, span self time with nested and with parallel
// children, the tracer's parent links, fail-ratio accounting, and the
// pacing of follower threads by a leader.
// Run: .bench_build/perfbench/perfbench_math_test (or run.py --self-test).
#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using perfbench::Span;

/// The smallest value with at least p% of the samples at or below it.
uint64_t OracleRank(std::vector<uint64_t> values, double p) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<double>(i + 1) * 100.0 >= p * static_cast<double>(n)) {
      return values[i];
    }
  }
  return values.back();
}

void TestNearestRank() {
  std::mt19937_64 rng(42);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 1001u}) {
    std::vector<uint64_t> values(n);
    for (uint64_t& v : values) v = rng() % 1000;
    std::vector<uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {1.0, 10.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      CHECK(perfbench::NearestRank(sorted, p) == OracleRank(values, p));
    }
  }
  CHECK(perfbench::NearestRank({}, 50) == 0);
  // Ten samples: p50 is the 5th, p90 the 9th.
  std::vector<uint64_t> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(perfbench::NearestRank(ten, 50) == 5);
  CHECK(perfbench::NearestRank(ten, 90) == 9);
}

void TestSummarizeMergesParts() {
  perfbench::Samples a(4);
  perfbench::Samples b(4);
  for (uint64_t v : {4000, 1000, 3000}) a.Add(v);
  for (uint64_t v : {2000, 5000}) b.Add(v);
  const perfbench::Quantiles q = perfbench::Summarize({&a, &b});
  CHECK(q.count == 5);
  CHECK(q.p50_us == 3.0);
  CHECK(q.p90_us == 5.0);
  // A full buffer counts the overflow instead of growing.
  perfbench::Samples c(2);
  for (int i = 0; i < 5; ++i) c.Add(1);
  CHECK(c.values().size() == 2);
  CHECK(c.values().capacity() == 2);
  CHECK(c.dropped() == 3);
}

Span MakeSpan(const char* name, uint64_t id, uint64_t parent, uint64_t start,
              uint64_t end) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimeNested() {
  // root [0,100) > a [10,40) > leaf [20,30); root > b [50,60).
  const std::vector<Span> spans = {
      MakeSpan("client.call", 1, 0, 0, 100),
      MakeSpan("server.apply", 2, 1, 10, 40),
      MakeSpan("engine.apply", 3, 2, 20, 30),
      MakeSpan("server.poll", 4, 1, 50, 60),
  };
  const std::vector<uint64_t> self = perfbench::SelfTimesNs(spans);
  CHECK(self[0] == 60);
  CHECK(self[1] == 20);
  CHECK(self[2] == 10);
  CHECK(self[3] == 10);
  const auto layers = perfbench::LayerSelfNs(spans);
  CHECK(layers.at("client") == 60);
  CHECK(layers.at("server") == 30);
  CHECK(layers.at("engine") == 10);
}

void TestSelfTimeParallelChildren() {
  // Worker-pool children overlap each other; the last one outlives its
  // parent and only its part inside the parent counts.
  const std::vector<Span> spans = {
      MakeSpan("stream.wave", 1, 0, 0, 100),
      MakeSpan("engine.check", 2, 1, 10, 50),
      MakeSpan("engine.check", 3, 1, 30, 70),
      MakeSpan("engine.check", 4, 1, 90, 120),
  };
  const std::vector<uint64_t> self = perfbench::SelfTimesNs(spans);
  CHECK(self[0] == 30);  // 100 - |[10,70) u [90,100)|
  CHECK(self[1] == 40);
  CHECK(self[2] == 40);
  CHECK(self[3] == 30);
}

void TestTracerParents() {
  perfbench::Tracer tracer(true, 2, 3);
  const uint64_t outer = tracer.Begin(0, "client.apply", 7);
  const uint64_t inner = tracer.Begin(0, "server.apply", 7);
  CHECK(tracer.Current(0) == inner);
  tracer.End(0, inner);
  tracer.End(0, outer);
  CHECK(tracer.Current(0) == 0);
  const uint64_t other = tracer.Begin(1, "engine.check");
  tracer.End(1, other);
  const std::vector<Span> spans = tracer.Collect();
  CHECK(spans.size() == 3);
  CHECK(spans[0].parent == 0);
  CHECK(spans[1].parent == outer);
  CHECK(spans[2].parent == 0);  // other slots have their own nesting
  CHECK(spans[1].request_id == 7);
  CHECK(outer != inner && outer != 0 && inner != 0 && other != outer);
  // Past its capacity a slot drops spans and counts them.
  for (int i = 0; i < 3; ++i) tracer.End(0, tracer.Begin(0, "client.poll"));
  CHECK(tracer.dropped() == 2);
  perfbench::Tracer off(false, 1, 8);
  CHECK(off.Begin(0, "client.apply") == 0);
  CHECK(off.Collect().empty());
}

void TestFailRatio() {
  CHECK(perfbench::FailRatio(0, 0) == 0);
  CHECK(perfbench::FailRatio(12, 0) == 0);
  CHECK(perfbench::FailRatio(12, 3) == 0.25);
  CHECK(perfbench::FailRatio(4, 4) == 1);
}

void TestPacer() {
  // Two followers at three ops per leader op never run ahead of the
  // leader, and all of them finish.
  constexpr size_t kLeaderOps = 200;
  constexpr size_t kRatio = 3;
  perfbench::Pacer pacer(kRatio);
  std::vector<size_t> ahead(2, 0);
  std::vector<std::thread> followers;
  for (size_t f = 0; f < 2; ++f) {
    followers.emplace_back([&, f] {
      for (size_t j = 0; j < kLeaderOps * kRatio; ++j) {
        pacer.Follow(j);
        if (pacer.started() < j / kRatio + 1) ++ahead[f];
      }
    });
  }
  for (size_t i = 0; i < kLeaderOps; ++i) {
    pacer.Lead();
    if (i % 50 == 0) std::this_thread::yield();
  }
  for (std::thread& t : followers) t.join();
  CHECK(ahead[0] == 0 && ahead[1] == 0);
  CHECK(pacer.started() == kLeaderOps);
  // A zero ratio is treated as one follower op per leader op.
  perfbench::Pacer one(0);
  one.Lead();
  one.Follow(0);
  CHECK(one.started() == 1);
}

}  // namespace

int main() {
  TestNearestRank();
  TestSummarizeMergesParts();
  TestSelfTimeNested();
  TestSelfTimeParallelChildren();
  TestTracerParents();
  TestFailRatio();
  TestPacer();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_math_test: all checks passed\n");
  return 0;
}
