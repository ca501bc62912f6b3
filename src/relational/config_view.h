// ConfigView: the read-only interface query evaluation sees.
//
// The paper's deciders never mutate the configuration they are given —
// they evaluate queries over Conf *plus a handful of hypothetical facts*
// (truncation configurations, generic responses, auxiliary production
// facts). Materializing those extensions by copying Conf is O(|Conf|) per
// candidate inside exponential searches; the view interface makes the
// extension O(|Δ|) instead: `Configuration` and `OverlayConfiguration`
// (base view + small delta, see overlay.h) implement the same read
// surface, so the evaluation layer is oblivious to whether it reads a
// materialized store or a base-plus-delta snapshot.
//
// Sequences are *borrowed*: FactSeq / ValueSeq / IndexSeq hold spans into
// the underlying stores (base segments first, then delta segments). They
// stay valid only while the viewed configuration is not mutated; callers
// that grow the configuration mid-iteration must materialize first
// (`ToVector`).
#ifndef RAR_RELATIONAL_CONFIG_VIEW_H_
#define RAR_RELATIONAL_CONFIG_VIEW_H_

#include <cstddef>
#include <cstdlib>
#include <vector>

#include "relational/fact.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace rar {

/// \brief A typed (value, domain) pair — one entry of the active domain.
struct TypedValue {
  Value value;
  DomainId domain = kInvalidId;

  bool operator==(const TypedValue& o) const {
    return value == o.value && domain == o.domain;
  }
  bool operator<(const TypedValue& o) const {
    if (!(value == o.value)) return value < o.value;
    return domain < o.domain;
  }
};

struct TypedValueHash {
  size_t operator()(const TypedValue& tv) const {
    return ValueHash()(tv.value) * 1000003u + tv.domain;
  }
};

/// Maximum base+delta segments a view sequence can carry; bounds overlay
/// nesting depth (each overlay layer adds at most one segment). The
/// engines nest at most three deep (configuration, generic-response
/// overlay, witness-search overlay); the cap leaves headroom.
inline constexpr size_t kMaxViewSegments = 12;

/// \brief A borrowed sequence of T stored in up to kMaxViewSegments
/// contiguous pieces (base store segments followed by delta segments).
template <typename T>
class SegSeq {
 public:
  SegSeq() = default;
  /*implicit*/ SegSeq(const std::vector<T>& v) { Append(v.data(), v.size()); }

  void Append(const T* data, size_t n) {
    if (n == 0) return;
    if (num_segs_ == kMaxViewSegments) std::abort();  // overlay nested too deep
    segs_[num_segs_++] = Segment{data, n};
    size_ += n;
  }
  void Append(const SegSeq& other) {
    for (size_t s = 0; s < other.num_segs_; ++s) {
      Append(other.segs_[s].data, other.segs_[s].size);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    size_t s = 0;
    while (i >= segs_[s].size) i -= segs_[s++].size;
    return segs_[s].data[i];
  }

  std::vector<T> ToVector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (size_t s = 0; s < num_segs_; ++s) {
      out.insert(out.end(), segs_[s].data, segs_[s].data + segs_[s].size);
    }
    return out;
  }

  class const_iterator {
   public:
    const_iterator(const SegSeq* seq, size_t seg, size_t pos)
        : seq_(seq), seg_(seg), pos_(pos) {}
    const T& operator*() const { return seq_->segs_[seg_].data[pos_]; }
    const T* operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++pos_ == seq_->segs_[seg_].size) {  // segments are never empty
        ++seg_;
        pos_ = 0;
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return seg_ == o.seg_ && pos_ == o.pos_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const SegSeq* seq_;
    size_t seg_;
    size_t pos_;
  };
  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const { return const_iterator(this, num_segs_, 0); }

 private:
  struct Segment {
    const T* data;
    size_t size;
  };
  Segment segs_[kMaxViewSegments];
  size_t num_segs_ = 0;
  size_t size_ = 0;
};

using FactSeq = SegSeq<Fact>;
using ValueSeq = SegSeq<Value>;

/// \brief A borrowed sequence of candidate positions into a FactSeq: each
/// segment carries raw per-store indices plus the offset of that store's
/// facts inside the overall view sequence (a base store's offset is 0; an
/// overlay's delta store starts after every base fact of the relation).
class IndexSeq {
 public:
  IndexSeq() = default;
  /*implicit*/ IndexSeq(const std::vector<int>& v) {
    Append(v.data(), v.size(), 0);
  }

  void Append(const int* data, size_t n, size_t offset) {
    if (n == 0) return;
    if (num_segs_ == kMaxViewSegments) std::abort();  // overlay nested too deep
    segs_[num_segs_++] = Segment{data, n, offset};
    size_ += n;
  }
  void Append(const IndexSeq& other) {
    for (size_t s = 0; s < other.num_segs_; ++s) {
      Append(other.segs_[s].data, other.segs_[s].size, other.segs_[s].offset);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t operator[](size_t i) const {
    size_t s = 0;
    while (i >= segs_[s].size) i -= segs_[s++].size;
    return static_cast<size_t>(segs_[s].data[i]) + segs_[s].offset;
  }

  class const_iterator {
   public:
    const_iterator(const IndexSeq* seq, size_t seg, size_t pos)
        : seq_(seq), seg_(seg), pos_(pos) {}
    size_t operator*() const {
      const Segment& s = seq_->segs_[seg_];
      return static_cast<size_t>(s.data[pos_]) + s.offset;
    }
    const_iterator& operator++() {
      if (++pos_ == seq_->segs_[seg_].size) {
        ++seg_;
        pos_ = 0;
      }
      return *this;
    }
    bool operator==(const const_iterator& o) const {
      return seg_ == o.seg_ && pos_ == o.pos_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const IndexSeq* seq_;
    size_t seg_;
    size_t pos_;
  };
  const_iterator begin() const { return const_iterator(this, 0, 0); }
  const_iterator end() const { return const_iterator(this, num_segs_, 0); }

 private:
  struct Segment {
    const int* data;
    size_t size;
    size_t offset;
  };
  Segment segs_[kMaxViewSegments];
  size_t num_segs_ = 0;
  size_t size_ = 0;
};

/// \brief Read-only interface over a configuration: membership, per-
/// relation fact access, the per-(position, value) candidate index, and
/// the typed active domain. Implemented by `Configuration` (single-segment
/// sequences over its stores) and `OverlayConfiguration` (base view
/// segments followed by delta segments).
class ConfigView {
 public:
  virtual ~ConfigView() = default;

  virtual const Schema* schema() const = 0;

  virtual bool Contains(const Fact& fact) const = 0;

  /// Total fact count across relations.
  virtual size_t NumFacts() const = 0;

  /// Upper bound (exclusive) on relation ids with a store; `FactsOf` of
  /// any id at or beyond it is empty. Lets schema-less callers iterate.
  virtual size_t NumRelationsBound() const = 0;

  /// Fact count of one relation (== FactsOf(rel).size(), without building
  /// the sequence).
  virtual size_t NumFactsOf(RelationId rel) const = 0;

  /// All facts of one relation: base facts in insertion order, then delta
  /// facts in insertion order.
  virtual FactSeq FactsOf(RelationId rel) const = 0;

  /// Positions (into FactsOf(rel)) of facts whose `position`-th value
  /// equals `v`. Empty when none match.
  virtual IndexSeq FactsWith(RelationId rel, int position, Value v) const = 0;

  /// True when (value, domain) is in the typed active domain.
  virtual bool AdomContains(Value value, DomainId domain) const = 0;

  /// Active-domain values of one domain, first-seen order (base first).
  virtual ValueSeq AdomOfDomain(DomainId domain) const = 0;

  /// The full typed active domain, sorted. Copied and sorted on every call
  /// (O(|Adom| log |Adom|)), so hot loops must not call it: reachability
  /// probes AdomContains, and the witness search reads AdomOfDomain once
  /// per search. Used by whole-view conversions (materialization, config
  /// folding, the containment-to-LTR transform) and ProducibleDomains.
  virtual std::vector<TypedValue> AdomEntries() const = 0;

  /// Every fact, relation-major (materialized convenience).
  std::vector<Fact> AllFacts() const {
    std::vector<Fact> out;
    out.reserve(NumFacts());
    for (size_t rel = 0; rel < NumRelationsBound(); ++rel) {
      for (const Fact& f : FactsOf(static_cast<RelationId>(rel))) {
        out.push_back(f);
      }
    }
    return out;
  }
};

}  // namespace rar

#endif  // RAR_RELATIONAL_CONFIG_VIEW_H_
