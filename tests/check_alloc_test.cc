// Heap-allocation counts of the engine's check path. This binary replaces
// the global operator new with a counting one, which is why it lives in a
// file of its own: no other test binary sees the counter.
//
// The load-bearing property: a FirstRelevant scan's heap allocations do
// not grow with the number of accesses it checks — neither when every
// probe hits the decision cache, nor when every probe finds its entry
// stale and re-decides it (the released record is recycled by the
// insert, and the IR search and the certainty re-evaluation reuse a
// per-thread scratch). Both scans allocate nothing at all. Likewise an
// LTR check of an access with outputs, re-decided after active-domain
// growth once the query's achievability memo holds, allocates nothing:
// the truncation cut is read off the view, with no generic response
// fact, overlay or containment search.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace {

std::atomic<long> g_allocations{0};

void* Allocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rar {
namespace {

// Q :- R(k, Y), S(Y) over a configuration with no R(k, _) fact: every
// access through R's method with a binding other than k is well-formed
// and not immediately relevant, so a scan checks the whole list. Applies
// to S (over existing values) move a footprint relation of every check.
// Each such access is long-term relevant (R(k, y) then S(y) is
// reachable, and R's output feeds both methods, so the truncation can be
// cut). U(E) lies outside the query; applies to it with values new to
// the active domain make every LTR verdict stale and leave the query's
// relations, and so its certainty, as they were.
class CheckAllocTest : public ::testing::Test {
 protected:
  static constexpr int kValues = 101;

  void SetUp() override {
    schema_ = std::make_shared<Schema>();
    const DomainId d = schema_->AddDomain("D");
    const DomainId e = schema_->AddDomain("E");
    r_ = *schema_->AddRelation("R", {{"a", d}, {"b", d}});
    s_ = *schema_->AddRelation("S", {{"a", d}});
    t_ = *schema_->AddRelation("T", {{"a", d}});
    u_ = *schema_->AddRelation("U", {{"a", e}});
    acs_ = std::make_unique<AccessMethodSet>(schema_.get());
    mr_ = *acs_->Add("r_by_a", r_, {0}, /*dependent=*/true);
    ms_ = *acs_->Add("s_check", s_, {0}, /*dependent=*/true);
    mu_ = *acs_->Add("u_free", u_, {}, /*dependent=*/true);
    Configuration conf(schema_.get());
    for (int i = 0; i < kValues; ++i) {
      values_.push_back(schema_->InternConstant("v" + std::to_string(i)));
      conf.AddFact(Fact(t_, {values_.back()}));
      // Interned here: interning allocates, and GrowAdom runs between
      // measured calls.
      fresh_.push_back(schema_->InternConstant("e" + std::to_string(i)));
    }
    ConjunctiveQuery cq;
    const VarId y = cq.AddVar("Y", d);
    cq.atoms.push_back(Atom{r_, {Term::MakeConst(values_[0]),
                                 Term::MakeVar(y)}});
    cq.atoms.push_back(Atom{s_, {Term::MakeVar(y)}});
    UnionQuery q;
    q.disjuncts.push_back(std::move(cq));
    EngineOptions opts;
    opts.num_threads = 1;
    engine_ = std::make_unique<RelevanceEngine>(*schema_, *acs_,
                                                std::move(conf), opts);
    qid_ = *engine_->RegisterQuery(q);
    for (int i = 1; i < kValues; ++i) {
      accesses_.push_back(Access{mr_, {values_[i]}});
    }
  }

  // Heap blocks allocated by one IR scan over the first `count` accesses;
  // the scan must find nothing relevant.
  long ScanAllocations(size_t count) {
    auto admit_all = [](AccessMethodId) { return true; };
    const long before = g_allocations.load();
    RelevanceEngine::ScanOutcome out =
        engine_->FirstRelevant(qid_, CheckKind::kImmediate, accesses_.data(),
                               count, admit_all, true);
    const long allocated = g_allocations.load() - before;
    EXPECT_EQ(out.index, -1);
    return allocated;
  }

  // Heap blocks allocated by single LTR checks of the first `count`
  // accesses; each must be relevant and decided afresh.
  long LtrAllocations(size_t count) {
    const long before = g_allocations.load();
    for (size_t i = 0; i < count; ++i) {
      const CheckOutcome out = engine_->CheckLongTerm(qid_, accesses_[i]);
      if (!out.ok() || !out.relevant || out.from_cache) ++ltr_surprises_;
    }
    return g_allocations.load() - before;
  }

  // Lands S(v_i): a new fact of a footprint relation (no Adom growth), so
  // every cached IR verdict of the query goes stale.
  void GrowFootprint() {
    const Value v = values_[next_s_++];
    ASSERT_TRUE(
        engine_->ApplyResponse(Access{ms_, {v}}, {Fact(s_, {v})}).ok());
  }

  // Lands U(e_i), a value new to the active domain, through a relation
  // outside the query: every cached LTR verdict of the query goes stale.
  void GrowAdom() {
    ASSERT_TRUE(engine_
                    ->ApplyResponse(Access{mu_, {}},
                                    {Fact(u_, {fresh_[next_u_++]})})
                    .ok());
  }

  std::shared_ptr<Schema> schema_;
  std::unique_ptr<AccessMethodSet> acs_;
  RelationId r_ = 0, s_ = 0, t_ = 0, u_ = 0;
  AccessMethodId mr_ = 0, ms_ = 0, mu_ = 0;
  std::vector<Value> values_;
  std::vector<Value> fresh_;  ///< E values, not yet in the active domain
  std::unique_ptr<RelevanceEngine> engine_;
  QueryId qid_ = 0;
  std::vector<Access> accesses_;
  int next_s_ = 1;
  int next_u_ = 0;
  int ltr_surprises_ = 0;
};

TEST_F(CheckAllocTest, AllHitScanAllocatesIndependentlyOfLength) {
  ScanAllocations(accesses_.size());  // decide and cache every verdict
  ScanAllocations(accesses_.size());  // warm
  const long one = ScanAllocations(1);
  const long hundred = ScanAllocations(accesses_.size());
  const EngineStats st = engine_->stats();
  EXPECT_EQ(st.cache_entries, accesses_.size());
  EXPECT_EQ(hundred, one) << "a cache hit must not allocate";
  std::printf("all-hit scan: %ld blocks over 1 access, %ld over %zu\n", one,
              hundred, accesses_.size());
}

TEST_F(CheckAllocTest, StaleScanAllocatesIndependentlyOfLength) {
  ScanAllocations(accesses_.size());
  GrowFootprint();
  ScanAllocations(accesses_.size());  // warm: stale -> re-decided
  const uint64_t misses_before = engine_->stats().cache_misses;
  GrowFootprint();
  const long hundred = ScanAllocations(accesses_.size());
  GrowFootprint();
  const long one = ScanAllocations(1);
  const EngineStats st = engine_->stats();
  // Every probe of both measured scans was stale and re-decided.
  EXPECT_EQ(st.cache_misses - misses_before, accesses_.size() + 1);
  EXPECT_EQ(st.cache_entries, accesses_.size());
  EXPECT_EQ(hundred, 0)
      << "a stale probe's recompute must reuse the released record";
  EXPECT_EQ(one, 0) << "the certainty re-evaluation must not allocate";
  std::printf("stale scan: %ld blocks over 1 access, %ld over %zu\n", one,
              hundred, accesses_.size());
}

TEST_F(CheckAllocTest, MemoizedLtrRecheckAllocatesIndependentlyOfCount) {
  LtrAllocations(accesses_.size());  // the first check sets the memo
  GrowAdom();
  LtrAllocations(accesses_.size());  // warm: stale -> re-decided
  const EngineStats before = engine_->stats();
  GrowAdom();
  const long hundred = LtrAllocations(accesses_.size());
  GrowAdom();
  const long one = LtrAllocations(1);
  const EngineStats st = engine_->stats();
  EXPECT_EQ(ltr_surprises_, 0) << "every check: relevant, not from cache";
  // Every measured check ran the decider, and the memo answered each.
  EXPECT_EQ(st.uncached_ltr_checks - before.uncached_ltr_checks,
            accesses_.size() + 1);
  EXPECT_EQ(st.achievable_reuse - before.achievable_reuse,
            accesses_.size() + 1);
  EXPECT_EQ(hundred, one)
      << "a memo-answered LTR recheck must not allocate per check";
  std::printf("memoized LTR rechecks: %ld blocks over 1 check, %ld over %zu\n",
              one, hundred, accesses_.size());
}

}  // namespace
}  // namespace rar
