#include <algorithm>

#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using rar::Fact;
using rar::Value;

GroupScenario MakeGroupScenario(uint64_t seed, int groups, int values,
                                int initial_facts_per_relation) {
  GroupScenario gs;
  rar::Scenario& s = gs.scenario;
  s.schema = std::make_shared<rar::Schema>();
  rar::Schema& schema = *s.schema;
  s.acs = rar::AccessMethodSet(s.schema.get());
  rar::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);

  struct Group {
    rar::DomainId domain;
    rar::RelationId rel[2];
    rar::AccessMethodId method[2];
    std::vector<Value> values;
  };
  std::vector<Group> gr(static_cast<size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    const std::string tag = std::to_string(g);
    Group& grp = gr[g];
    grp.domain = schema.AddDomain("D" + tag);
    grp.rel[0] = *schema.AddRelation(
        "A" + tag, std::vector<rar::DomainId>{grp.domain, grp.domain});
    grp.rel[1] = *schema.AddRelation(
        "B" + tag, std::vector<rar::DomainId>{grp.domain, grp.domain});
    grp.method[0] = *s.acs.Add("a" + tag, grp.rel[0], {0}, /*dependent=*/true);
    grp.method[1] = *s.acs.Add("b" + tag, grp.rel[1], {0}, /*dependent=*/true);
    for (int i = 0; i < values; ++i) {
      grp.values.push_back(
          schema.InternConstant("v" + tag + "_" + std::to_string(i)));
    }
  }

  s.conf = rar::Configuration(s.schema.get());
  gs.applies.resize(static_cast<size_t>(groups));
  for (Group& grp : gr) {
    for (const Value& v : grp.values) s.conf.AddSeedConstant(v, grp.domain);
    // Every (relation, x, y) pair over the group's values, shuffled: a
    // prefix seeds the configuration, the rest is the apply script.
    std::vector<Fact> pairs[2];
    for (int r = 0; r < 2; ++r) {
      for (const Value& x : grp.values) {
        for (const Value& y : grp.values) {
          pairs[r].push_back(Fact(grp.rel[r], {x, y}));
        }
      }
      for (size_t i = pairs[r].size(); i > 1; --i) {
        std::swap(pairs[r][i - 1], pairs[r][rng.Below(i)]);
      }
      const size_t seeded = std::min<size_t>(
          static_cast<size_t>(initial_facts_per_relation), pairs[r].size());
      for (size_t i = 0; i < seeded; ++i) s.conf.AddFact(pairs[r][i]);
      pairs[r].erase(pairs[r].begin(), pairs[r].begin() + seeded);
    }
    // Alternate A and B facts so every stretch of the script hits both
    // relations of the subscription footprint.
    auto& script = gs.applies[&grp - gr.data()];
    for (size_t i = 0; i < pairs[0].size() || i < pairs[1].size(); ++i) {
      for (int r = 0; r < 2; ++r) {
        if (i >= pairs[r].size()) continue;
        const Fact& f = pairs[r][i];
        script.push_back(
            ScriptedApply{rar::Access{grp.method[r], {f.values[0]}}, {f}});
      }
    }

    // Q_g(X) :- Ag(X, Y), Bg(Y, Z)
    rar::ConjunctiveQuery cq;
    rar::VarId x = cq.AddVar("X", grp.domain);
    rar::VarId y = cq.AddVar("Y", grp.domain);
    rar::VarId z = cq.AddVar("Z", grp.domain);
    cq.atoms.push_back(rar::Atom{
        grp.rel[0], {rar::Term::MakeVar(x), rar::Term::MakeVar(y)}});
    cq.atoms.push_back(rar::Atom{
        grp.rel[1], {rar::Term::MakeVar(y), rar::Term::MakeVar(z)}});
    cq.head = {x};
    rar::UnionQuery uq;
    uq.disjuncts.push_back(std::move(cq));
    gs.queries.push_back(std::move(uq));
  }
  return gs;
}

int PollAndAcknowledge(rar::RarClient& client, uint32_t handle,
                       uint64_t* cursor, Samples* latency, uint64_t* calls,
                       std::string* error) {
  const uint64_t t0 = NowNs();
  rar::Result<rar::StreamDelta> delta = client.Poll(handle, *cursor);
  if (latency != nullptr) latency->Add(NowNs() - t0);
  ++*calls;
  if (!delta.ok()) {
    *error = "poll failed: " + delta.status().ToString();
    return -1;
  }
  for (const rar::StreamEvent& ev : delta->events) {
    if (ev.sequence != *cursor + 1) {
      *error = "sequence gap: expected " + std::to_string(*cursor + 1) +
               ", got " + std::to_string(ev.sequence);
      return -1;
    }
    *cursor = ev.sequence;
  }
  if (!delta->events.empty()) {
    ++*calls;
    rar::Status ack = client.Acknowledge(handle, *cursor);
    if (!ack.ok()) {
      *error = "acknowledge failed: " + ack.ToString();
      return -1;
    }
  }
  return static_cast<int>(delta->events.size());
}

std::map<std::string, std::pair<bool, bool>> SnapshotKey(
    const rar::Schema& schema, const rar::StreamSnapshot& snap) {
  std::map<std::string, std::pair<bool, bool>> out;
  for (const rar::BindingView& b : snap.bindings) {
    std::string key;
    if (b.has_fresh) {
      key = "<fresh>";
    } else {
      for (const Value& v : b.binding) key += schema.ValueToString(v) + ",";
    }
    out[key] = {b.certain, b.relevant};
  }
  return out;
}

}  // namespace perfbench
