// Memoized relevance verdicts with footprint-aware invalidation and a
// capped LRU.
//
// The engine's configuration only ever grows (responses are applied, never
// retracted), which gives two regimes for a cached verdict:
//
//  * *sticky* entries — verdicts that stay valid under any growth. The one
//    the engine records is "not relevant because the query is already
//    certain": positive queries are monotone, so a certain query stays
//    certain and no access can change its (Boolean) certain answer again.
//  * *stamped* entries — everything else. A "relevant" verdict can be
//    destroyed by growth (the certainty the access promised may have
//    arrived by another route), and a plain "not relevant" verdict can be
//    *created* by growth (a dependent chain may become feasible) — but
//    only by growth of state the decider actually read. Each entry carries
//    the `VersionStamp` of its check's relation footprint (per-relation
//    fact versions, plus the Adom version for LTR; see query/footprint.h);
//    the entry is served while the current stamp is equal, and discarded
//    as stale on the first mismatch. Growth *outside* the footprint leaves
//    the entry valid — the hit is reported with `cross_epoch = true` so
//    callers can count invalidations the old global-epoch scheme would
//    have inflicted.
//
// Memory is bounded by `capacity`: entries are kept in LRU order (hits
// refresh recency) and the coldest entry is evicted on overflow. Stale
// entries are additionally dropped eagerly when a lookup discovers them.
//
// Storage is flat and recycled, so a check allocates nothing:
//  * records live in a slab (a deque: growth never moves a record); each
//    keeps its packed binding and its stamp in one word buffer. A
//    released record (stale or evicted) goes on a free list with that
//    buffer, which the next insert reuses — the stale-then-recompute
//    cycle allocates nothing;
//  * an open-addressing table of (hash, record index) slots indexes the
//    live records (linear probing, backward-shift deletion, load <= 1/2);
//  * recency is a doubly linked list of record indices, its links kept in
//    a compact array beside the slab (a hit touches no other record).
// A probe borrows the caller's Access (DecisionKey) and hashes it once;
// the insert after a miss reuses that hash. A matching hash only selects a
// candidate: the full key is always compared.
#ifndef RAR_ENGINE_DECISION_CACHE_H_
#define RAR_ENGINE_DECISION_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "access/access_method.h"
#include "relational/value.h"
#include "relational/version.h"

namespace rar {

/// Dense id of a query registered with a RelevanceEngine.
using QueryId = uint32_t;

/// The two decision kinds the engine serves.
enum class CheckKind : uint8_t { kImmediate = 0, kLongTerm = 1 };

/// \brief Cache key: (query, kind, method, binding), borrowed from the
/// caller's Access (which must outlive the key) and hashed once at
/// construction. The configuration is deliberately absent — the footprint
/// stamp on the entry stands in for it. A key determines its footprint
/// (query relations + the method's relation), so stamps of the same key
/// are always comparable.
struct DecisionKey {
  DecisionKey(QueryId q, CheckKind k, const Access& a)
      : query(q), kind(k), access(a), hash(HashOf(q, k, a)) {}

  QueryId query;
  CheckKind kind;
  const Access& access;
  uint64_t hash;

 private:
  static uint64_t HashOf(QueryId q, CheckKind k, const Access& a) {
    uint64_t h = 1469598103934665603ULL;
    h = (h ^ q) * 1099511628211ULL;
    h = (h ^ static_cast<uint64_t>(k)) * 1099511628211ULL;
    h = (h ^ a.method) * 1099511628211ULL;
    ValueHash vh;
    for (const Value& v : a.binding) h = (h ^ vh(v)) * 1099511628211ULL;
    // Finalize: the table indexes by the low bits.
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
  }
};

/// \brief Thread-safe verdict cache. All methods may be called concurrently
/// from engine workers; a single mutex suffices because entries are tiny
/// and the deciders the cache short-circuits are orders of magnitude more
/// expensive than the critical section. Nothing is allocated under the
/// mutex except when the slab or the table grows.
///
/// Stamps are passed as any type with `size()` and `operator[](size_t)`
/// yielding the components (a VersionStamp, or the engine's view of its
/// version mirror, read in place).
class DecisionCache {
 public:
  /// Generous default: bounds pathological runs (millions of distinct
  /// bindings) without evicting anything in normal mediation.
  static constexpr size_t kDefaultCapacity = size_t{1} << 20;

  explicit DecisionCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Hit {
    bool relevant = false;
    bool sticky = false;
    /// True when the global epoch moved since the entry was computed —
    /// i.e. a hit the global-epoch scheme would have invalidated.
    bool cross_epoch = false;
  };

  enum class ProbeStatus : uint8_t {
    kMiss,   ///< no entry for the key
    kStale,  ///< entry found but its footprint stamp mismatched (dropped)
    kHit,    ///< entry served
  };

  struct Probe {
    ProbeStatus status = ProbeStatus::kMiss;
    Hit hit;
    /// For kStale: index of the first mismatching stamp component (the
    /// caller maps it back to a footprint relation / the Adom slot).
    int stale_component = -1;
  };

  /// Probes the cache. `stamp` holds the footprint versions current at
  /// the probe; `epoch` the current derived global epoch (used only to
  /// flag cross-epoch hits). A stale entry's record is released in place.
  /// Hits refresh LRU recency.
  template <typename Stamp>
  Probe Lookup(const DecisionKey& key, const Stamp& stamp, uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    Probe probe;
    size_t slot = 0;
    const uint32_t idx = Find(key, &slot);
    if (idx == kNil) return probe;
    Record& r = records_[idx];
    if (!r.sticky) {
      const int mismatch = FirstMismatch(r, stamp);
      if (mismatch >= 0) {
        probe.status = ProbeStatus::kStale;
        probe.stale_component = mismatch;
        EraseSlot(slot);
        Unlink(idx);
        Release(idx);
        return probe;
      }
    }
    probe.status = ProbeStatus::kHit;
    probe.hit = Hit{r.relevant, r.sticky, r.epoch != epoch};
    MoveToFront(idx);
    return probe;
  }

  /// Records a verdict computed at `stamp` / `epoch`. Sticky entries are
  /// never overwritten by non-sticky ones (they are strictly stronger).
  /// Evicts the LRU tail when the cache exceeds its capacity.
  template <typename Stamp>
  void Insert(const DecisionKey& key, bool relevant, bool sticky,
              const Stamp& stamp, uint64_t epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t slot = 0;
    uint32_t idx = Find(key, &slot);
    if (idx != kNil) {
      Record& r = records_[idx];
      if (r.sticky && !sticky) return;
      Fill(&r, relevant, sticky, stamp, epoch);
      MoveToFront(idx);
      return;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
      Find(key, &slot);
    }
    idx = Acquire();
    Record& r = records_[idx];
    r.hash = key.hash;
    r.query = key.query;
    r.kind = key.kind;
    r.method = key.access.method;
    r.binding_size = static_cast<uint32_t>(key.access.binding.size());
    Fill(&r, relevant, sticky, stamp, epoch);
    for (uint32_t i = 0; i < r.binding_size; ++i) {
      r.words[i] = key.access.binding[i].Packed();
    }
    slots_[slot] = Slot{static_cast<uint32_t>(key.hash), idx};
    ++size_;
    PushFront(idx);
    while (size_ > capacity_) {
      const uint32_t coldest = tail_;
      EraseSlot(SlotOf(coldest));
      Unlink(coldest);
      Release(coldest);
      ++evictions_;
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  size_t capacity() const { return capacity_; }

  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Record {
    uint64_t hash = 0;
    uint64_t epoch = 0;  ///< derived global epoch at compute time
    QueryId query = 0;
    AccessMethodId method = kInvalidId;
    CheckKind kind = CheckKind::kImmediate;
    bool relevant = false;
    bool sticky = false;
    uint32_t binding_size = 0;
    /// The binding (Value::Packed, `binding_size` words), then the stamp
    /// components. Kept across release for reuse.
    std::vector<uint64_t> words;
  };

  /// Recency neighbours of a record (prev: more recent); a released
  /// record threads the free list through `next`.
  struct Links {
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  /// One table slot: the low 32 bits of the key's hash (which also give
  /// the home position) and the record index (kNil = empty).
  struct Slot {
    uint32_t tag = 0;
    uint32_t record = kNil;
  };

  // Index of the first component where `r`'s stamp and `b` differ (the
  // shorter length when one is a prefix of the other), or -1 when equal.
  template <typename Stamp>
  static int FirstMismatch(const Record& r, const Stamp& b) {
    const uint64_t* a = r.words.data() + r.binding_size;
    const size_t a_size = r.words.size() - r.binding_size;
    const size_t n = std::min(a_size, b.size());
    for (size_t i = 0; i < n; ++i) {
      if (a[i] != b[i]) return static_cast<int>(i);
    }
    return a_size == b.size() ? -1 : static_cast<int>(n);
  }

  template <typename Stamp>
  static void Fill(Record* r, bool relevant, bool sticky, const Stamp& stamp,
                   uint64_t epoch) {
    r->relevant = relevant;
    r->sticky = sticky;
    r->epoch = epoch;
    r->words.resize(r->binding_size + stamp.size());
    for (size_t i = 0; i < stamp.size(); ++i) {
      r->words[r->binding_size + i] = stamp[i];
    }
  }

  static bool Matches(const Record& r, const DecisionKey& key) {
    const std::vector<Value>& binding = key.access.binding;
    if (r.hash != key.hash || r.query != key.query || r.kind != key.kind ||
        r.method != key.access.method || r.binding_size != binding.size()) {
      return false;
    }
    for (size_t i = 0; i < binding.size(); ++i) {
      if (r.words[i] != binding[i].Packed()) return false;
    }
    return true;
  }

  // The record holding `key` (kNil when absent); `*slot` is its slot, or
  // the empty slot where an insert of `key` belongs.
  uint32_t Find(const DecisionKey& key, size_t* slot) const {
    if (slots_.empty()) return kNil;
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = static_cast<uint32_t>(key.hash);
    for (size_t i = tag & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.record == kNil ||
          (s.tag == tag && Matches(records_[s.record], key))) {
        *slot = i;
        return s.record;
      }
    }
  }

  size_t SlotOf(uint32_t idx) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<uint32_t>(records_[idx].hash) & mask;
    while (slots_[i].record != idx) i = (i + 1) & mask;
    return i;
  }

  // Backward-shift deletion: later members of the probe run move into the
  // hole when their home position allows, so no tombstones accumulate.
  void EraseSlot(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].record != kNil;
         j = (j + 1) & mask) {
      const size_t home = slots_[j].tag & mask;
      // Slot j stays unless its home lies cyclically outside (hole, j].
      const bool stays = hole < j ? (hole < home && home <= j)
                                  : (hole < home || home <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.record == kNil) continue;
      size_t i = s.tag & mask;
      while (slots_[i].record != kNil) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  uint32_t Acquire() {
    if (free_ != kNil) {
      const uint32_t idx = free_;
      free_ = links_[idx].next;
      return idx;
    }
    records_.emplace_back();
    links_.emplace_back();
    return static_cast<uint32_t>(records_.size() - 1);
  }

  void Release(uint32_t idx) {
    links_[idx].next = free_;
    free_ = idx;
  }

  void PushFront(uint32_t idx) {
    links_[idx] = Links{kNil, head_};
    if (head_ != kNil) links_[head_].prev = idx;
    head_ = idx;
    if (tail_ == kNil) tail_ = idx;
  }

  void Unlink(uint32_t idx) {
    const Links l = links_[idx];
    (l.prev != kNil ? links_[l.prev].next : head_) = l.next;
    (l.next != kNil ? links_[l.next].prev : tail_) = l.prev;
  }

  void MoveToFront(uint32_t idx) {
    if (head_ == idx) return;
    Unlink(idx);
    PushFront(idx);
  }

  mutable std::mutex mu_;
  size_t capacity_;
  size_t size_ = 0;
  uint64_t evictions_ = 0;
  std::deque<Record> records_;
  std::vector<Links> links_;  ///< parallel to records_
  std::vector<Slot> slots_;   ///< power-of-two size, or empty
  uint32_t head_ = kNil;     ///< most recently used
  uint32_t tail_ = kNil;     ///< least recently used
  uint32_t free_ = kNil;     ///< released records
};

}  // namespace rar

#endif  // RAR_ENGINE_DECISION_CACHE_H_
