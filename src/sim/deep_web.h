// A deep-Web source simulator and a relevance-guided query mediator.
//
// The paper's model assumes sources are *sound but not exact*: an access
// may return any subset of the matching tuples, possibly a different one
// each time. `DeepWebSource` implements exactly that against a hidden
// instance. `Mediator` runs the dynamic query-answering loop the paper
// motivates: at each configuration it performs only accesses that are
// relevant (immediately, or long-term), versus the exhaustive Li-style
// crawl that performs every well-formed access — the comparison the
// Section 7 discussion draws ("no check is made for the relevance of an
// access").
//
// Both loops run on a `RelevanceEngine`: candidate enumeration and
// performed-access dedup come from the engine's AccessFrontier, verdicts
// from its decision cache, and the evolving configuration lives inside the
// engine (responses are absorbed via ApplyResponse).
#ifndef RAR_SIM_DEEP_WEB_H_
#define RAR_SIM_DEEP_WEB_H_

#include <string>
#include <vector>

#include "access/access_method.h"
#include "engine/engine.h"
#include "relational/configuration.h"
#include "relevance/relevance.h"
#include "util/rng.h"
#include "util/status.h"

namespace rar {

/// \brief Sound response behaviour of a simulated source.
struct ResponsePolicy {
  enum class Kind {
    kExact,        ///< return every matching tuple
    kCapped,       ///< return at most `cap` matching tuples
    kRandomSubset  ///< keep each matching tuple with probability keep_prob
  };
  Kind kind = Kind::kExact;
  int cap = 1;
  double keep_prob = 0.5;
  /// Simulated round-trip latency per access, in microseconds. Real
  /// deep-web sources answer over a network; the pipelined mediator
  /// exists to hide exactly this (plus the apply) behind the next round's
  /// relevance checks.
  int latency_us = 0;
};

/// \brief A simulated deep-Web source: hidden instance + access methods.
class DeepWebSource {
 public:
  DeepWebSource(const Schema* schema, const AccessMethodSet* acs,
                Configuration hidden, uint64_t seed = 7)
      : schema_(schema), acs_(acs), hidden_(std::move(hidden)), rng_(seed) {}

  /// Executes a well-formed access and returns a sound response.
  Result<std::vector<Fact>> Execute(const Configuration& conf,
                                    const Access& access,
                                    const ResponsePolicy& policy = {});

  /// Engine-backed overload: well-formedness is validated against the
  /// engine's live configuration under its locks (safe while responses
  /// are applied concurrently — Adom is monotone, so a pass cannot be
  /// revoked).
  Result<std::vector<Fact>> Execute(const RelevanceEngine& engine,
                                    const Access& access,
                                    const ResponsePolicy& policy = {});

  long accesses_served() const { return accesses_served_; }
  const Configuration& hidden() const { return hidden_; }

 private:
  /// Shared tail of both Execute overloads (access already validated).
  Result<std::vector<Fact>> ExecuteValidated(const Access& access,
                                             const ResponsePolicy& policy);

  const Schema* schema_;
  const AccessMethodSet* acs_;
  Configuration hidden_;
  Rng rng_;
  long accesses_served_ = 0;
};

/// \brief Outcome of a mediation run.
struct MediationOutcome {
  bool answered = false;          ///< the query became certain (Boolean) /
                                  ///< the stream drained (k-ary)
  long accesses_performed = 0;    ///< accesses actually executed
  long accesses_considered = 0;   ///< candidate accesses examined
  long relevance_checks = 0;      ///< IR/LTR decisions made
  int rounds = 0;
  Configuration final_conf;
  std::vector<std::string> log;   ///< human-readable trace
  EngineStats engine;             ///< engine counters for the run
  /// Latency histograms for the run (decider/apply/wave plus the
  /// simulated source round-trips the mediator loop timed).
  ObsSnapshot obs;
  /// For k-ary stream runs: the certain-answer tuples at the final
  /// configuration (fresh-constant bindings excluded).
  std::vector<std::vector<Value>> certain_answers;
};

/// \brief Strategy options for the mediator.
struct MediatorOptions {
  bool use_immediate = true;   ///< prefer IR accesses
  bool use_long_term = true;   ///< fall back to LTR accesses
  /// When the LTR decider is out of its paper-backed scope (non-Boolean
  /// dependent access), treat the access as relevant (conservative).
  bool conservative_on_unknown = true;
  int max_rounds = 64;
  bool verbose_log = false;
  /// Pipeline the mediation loop: access *i* is executed against the
  /// source and its response applied on a background worker while
  /// candidates for access *i+1* are being checked (AnswerBoolean), resp.
  /// while access *i+1* is executed (ExhaustiveCrawl). Sound because
  /// responses are monotone and the engine's footprint-stamped cache
  /// revalidates exactly the verdicts the landed response can affect; the
  /// performed-access dedup makes the loop never re-execute an in-flight
  /// access. Checks may run one response behind, which can cost an extra
  /// (sound) access but never a wrong answer.
  bool pipelined = false;
  ResponsePolicy policy;
  /// Engine construction knobs for the run; `engine.relevance` holds the
  /// decider options (single source of truth).
  EngineOptions engine;
};

/// \brief Dynamic query answering driven by relevance analysis.
class Mediator {
 public:
  Mediator(const Schema& schema, const AccessMethodSet& acs)
      : schema_(schema), acs_(acs) {}

  /// Runs the relevance-guided loop for a Boolean query.
  Result<MediationOutcome> AnswerBoolean(const UnionQuery& query,
                                         const Configuration& initial,
                                         DeepWebSource* source,
                                         const MediatorOptions& options = {});

  /// Baseline: performs every well-formed access (no relevance filter)
  /// until the query is certain or a fixpoint is reached.
  Result<MediationOutcome> ExhaustiveCrawl(const UnionQuery& query,
                                           const Configuration& initial,
                                           DeepWebSource* source,
                                           const MediatorOptions& options = {});

  /// Stream-driven crawl for a *k-ary* (or Boolean) query: registers a
  /// standing stream (src/stream/) and drains it — each round performs the
  /// witness access of some relevant binding, the applied response
  /// incrementally recomputes only the bindings it invalidated, and the
  /// loop ends when no binding is relevant anymore (every remaining
  /// candidate access is provably useless for every head tuple). The
  /// certain-answer set accumulated by the stream is returned in
  /// `MediationOutcome::certain_answers`. Serialized only: responses must
  /// land before the next poll (`options.pipelined` is ignored).
  Result<MediationOutcome> AnswerKAry(const UnionQuery& query,
                                      const Configuration& initial,
                                      DeepWebSource* source,
                                      const MediatorOptions& options = {});

 private:
  const Schema& schema_;
  const AccessMethodSet& acs_;
};

}  // namespace rar

#endif  // RAR_SIM_DEEP_WEB_H_
