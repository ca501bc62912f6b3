// The three benchmark workloads and the seeded scenario fanout and
// durable share. Each Run*Round builds its inputs from the seed, times
// its own set-up, runs a fixed number of ops per client thread, checks
// the outcome and fills a RoundResult.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "server/client.h"
#include "server/protocol.h"
#include "stream/stream.h"
#include "workload/generators.h"

namespace perfbench {

RoundResult RunFanoutRound(const RoundInputs& in);
RoundResult RunDurableRound(const RoundInputs& in);
RoundResult RunCrawlRound(const RoundInputs& in);

/// One scripted apply: an access and the one-fact response it lands.
struct ScriptedApply {
  rar::Access access;
  std::vector<rar::Fact> response;
};

/// \brief `groups` disjoint groups, each a domain Dg of `values` seeded
/// constants with relations Ag(Dg,Dg), Bg(Dg,Dg) behind dependent methods
/// bound on the first attribute, and the subscription Q_g(X) :- Ag(X,Y),
/// Bg(Y,Z), whose footprint covers both relations. The initial
/// configuration holds a seeded sprinkle of facts; every other Ag/Bg pair
/// is a fact-landing apply, shuffled per group by the seed.
struct GroupScenario {
  rar::Scenario scenario;
  std::vector<rar::UnionQuery> queries;  ///< one per group
  /// Per group: applies in script order, each landing one new fact.
  std::vector<std::vector<ScriptedApply>> applies;
};
GroupScenario MakeGroupScenario(uint64_t seed, int groups, int values,
                                int initial_facts_per_relation);

/// Polls one stream handle from `*cursor`, checks the sequences are
/// gap-free, advances the cursor and acknowledges what arrived. Counts
/// every call in `*calls` and times the Poll into `latency` (if given).
/// Returns the number of events, or -1 with `*error` set on a failed
/// call or a gap.
int PollAndAcknowledge(rar::RarClient& client, uint32_t handle,
                       uint64_t* cursor, Samples* latency, uint64_t* calls,
                       std::string* error);

/// Snapshot bindings keyed for parity comparison. Fresh constants are
/// minted per registration, so fresh bindings collapse to one key.
std::map<std::string, std::pair<bool, bool>> SnapshotKey(
    const rar::Schema& schema, const rar::StreamSnapshot& snap);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
