// Standing k-ary relevance streams: the public subscription surface.
//
// The paper's runtime story is a mediator deciding, as the configuration
// grows, which accesses still matter; Prop 2.2 reduces k-ary relevance to
// Boolean relevance per head instantiation. A *stream* makes that
// reduction resident: a client registers a k-ary (or Boolean) union query
// once and the registry (src/stream/registry.h) thereafter maintains, per
// head binding b over the active domain plus the Prop 2.2 fresh
// constants,
//
//  * whether Q_b is certain — b has joined the certain-answer set
//    (monotone: the configuration only grows, so certainty is sticky);
//  * whether some pending frontier access is still IR/LTR-relevant to
//    Q_b, together with one witnessing access (what a crawl should
//    perform next for that binding).
//
// Clients consume the state two ways: `Snapshot` (point-in-time sets) and
// `Poll` (incremental deltas — the ordered stream of binding lifecycle
// events since the last poll). Both are cheap reads; the expensive work
// happens inside ApplyResponse notifications, and only for the bindings
// whose footprint stamps the response actually invalidated.
#ifndef RAR_STREAM_STREAM_H_
#define RAR_STREAM_STREAM_H_

#include <cstdint>
#include <vector>

#include "access/access_method.h"
#include "relational/value.h"

namespace rar {

/// Dense id of a subscription within a RelevanceStreamRegistry: one
/// registration's cursor on a stream that registrations with an equal
/// (query, options) key share.
using StreamId = uint32_t;

/// \brief Per-stream registration knobs.
struct StreamOptions {
  /// Track immediate relevance of pending accesses per binding.
  bool use_immediate = true;
  /// Also track long-term relevance (falls back to LTR when no access is
  /// immediately relevant — the expensive kind; off by default).
  bool use_long_term = false;
  /// When an LTR verdict is outside its paper-backed scope, count the
  /// access as relevant (mirror of MediatorOptions::conservative_on_unknown).
  bool conservative_on_unknown = true;
  /// Ignored: every wave runs on the applying thread. It is not part of
  /// the sharing key; the stream codecs write 8 in its slot and discard
  /// what they read.
  size_t parallel_threshold = 8;
  /// Disables the value gate: every footprint-hit wave re-evaluates every
  /// stamp-stale binding, never restamping from the landed delta alone.
  /// Escape hatch for parity testing and for recovery from a suspected
  /// gating bug; verdicts must be identical either way (the stream_test
  /// property tests pin that).
  bool force_full_recheck = false;
  /// Retain delivered events until the subscriber acknowledges them
  /// (`Acknowledge`), instead of draining on Poll. Required for resumable
  /// cursors: after a crash or reconnect, `PollAfter(acked)` re-delivers
  /// everything past the acknowledged sequence, gap-free. DurableSession
  /// forces this on so persisted cursors always have events to resume
  /// into.
  bool retain_events = false;
  /// Cap on retained events (retain_events only; 0 = unbounded). When a
  /// subscription's un-acknowledged backlog exceeds the cap, its oldest
  /// events are evicted — a dead or lagging subscriber cannot pin memory
  /// forever, and the other subscribers of the stream are unaffected. A
  /// cursor behind the eviction horizon gets a typed FailedPrecondition
  /// from `PollAfter` ("cursor evicted"): the subscriber must re-`Snapshot`
  /// and resume from `StreamDelta::evicted_through`.
  uint64_t retain_cap = 0;
};

/// \brief Binding lifecycle events a stream emits.
enum class StreamEventKind : uint8_t {
  kBindingAdded,      ///< head binding enumerated (registration/Adom growth)
  kBecameCertain,     ///< Q_b turned certain: b joined the certain-answer set
  kBecameRelevant,    ///< some frontier access is now relevant to Q_b
  kBecameIrrelevant,  ///< no frontier access is relevant to Q_b anymore
};

const char* ToString(StreamEventKind kind);

/// \brief One delta notification: a binding (full k-tuple of head values)
/// changed state. `sequence` numbers one subscription's events 1, 2, 3,
/// ... without gaps, so clients can detect missed polls.
struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kBindingAdded;
  std::vector<Value> binding;
  uint64_t sequence = 0;
};

/// \brief Events accumulated since the previous Poll.
struct StreamDelta {
  std::vector<StreamEvent> events;
  uint64_t last_sequence = 0;
  /// Highest sequence the retention cap has evicted (0 = none). Events at
  /// or below it are gone: a subscriber whose cursor is behind must
  /// re-Snapshot instead of assuming `events` is gap-free back to its
  /// cursor.
  uint64_t evicted_through = 0;
};

/// \brief Read-only view of one tracked binding.
struct BindingView {
  std::vector<Value> binding;  ///< full k-tuple of head values
  bool certain = false;
  bool relevant = false;
  /// The binding uses a Prop 2.2 fresh constant (it stands for "some value
  /// not yet in the configuration"; never a concrete certain answer).
  bool has_fresh = false;
  /// Every disjunct collapsed under this binding (repeated head variables
  /// with conflicting values): permanently irrelevant.
  bool unsat = false;
  /// A pending access found relevant to Q_b (valid when `relevant`).
  Access witness;
  bool has_witness = false;
};

/// \brief Point-in-time state of one stream.
struct StreamSnapshot {
  size_t bindings_tracked = 0;
  size_t certain = 0;
  size_t relevant = 0;
  /// True when some binding still has a relevant frontier access — the
  /// standing k-ary relevance verdict (Prop 2.2's OR over instantiations).
  bool any_relevant = false;
  std::vector<BindingView> bindings;
};

}  // namespace rar

#endif  // RAR_STREAM_STREAM_H_
