#include "relevance/immediate.h"

#include <vector>

#include "query/eval.h"

namespace rar {

namespace {

// Backtracking search for a witnessing assignment of one disjunct: every
// atom must be matched against Conf or against the access's virtual
// response relation (relation == Rel(AcM), inputs == Bind).
//
// Candidate facts come from the (position, value) index on the atom's
// first bound position — a constant, or a variable an earlier atom
// assigned — so a binding query with its head constants substituted reads
// only the facts that carry them. Bindings are undone through one trail;
// the search works in the caller's IrScratch, so it allocates nothing per
// candidate, and nothing at all once the scratch has grown.
class IrSearch {
 public:
  IrSearch(const ConfigView& conf, const AccessMethod& method,
           const Access& access, IrScratch* scratch)
      : conf_(conf), method_(method), access_(access),
        assignment_(scratch->assignment), assigned_(scratch->assigned),
        trail_(scratch->trail) {}

  bool Run(const ConjunctiveQuery& d) {
    d_ = &d;
    assignment_.assign(d.num_vars(), Value());
    assigned_.assign(d.num_vars(), 0);
    trail_.clear();
    trail_.reserve(d.num_vars());
    return Rec(0);
  }

 private:
  bool Rec(size_t atom_idx) {
    if (atom_idx == d_->atoms.size()) return true;
    const Atom& atom = d_->atoms[atom_idx];
    const size_t mark = trail_.size();

    // Option (a): witness the atom with a configuration fact.
    const FactSeq facts = conf_.FactsOf(atom.relation);
    int pos = 0;
    Value bound;
    if (FirstBound(atom, &pos, &bound)) {
      for (size_t idx : conf_.FactsWith(atom.relation, pos, bound)) {
        if (UnifyAgainstFact(atom, facts[idx]) && Rec(atom_idx + 1)) {
          return true;
        }
        Undo(mark);
      }
    } else {
      for (const Fact& fact : facts) {
        if (UnifyAgainstFact(atom, fact) && Rec(atom_idx + 1)) return true;
        Undo(mark);
      }
    }

    // Option (b): witness it with the access — relation must match and the
    // input positions must unify with the binding; output positions are
    // unconstrained (the response may contain anything there).
    if (atom.relation == method_.relation) {
      bool ok = true;
      for (int i = 0; i < method_.num_inputs() && ok; ++i) {
        ok = Unify(atom.terms[method_.input_positions[i]],
                   access_.binding[i]);
      }
      if (ok && Rec(atom_idx + 1)) return true;
      Undo(mark);
    }
    return false;
  }

  // The first position of `atom` whose value is already fixed.
  bool FirstBound(const Atom& atom, int* pos, Value* value) const {
    for (int p = 0; p < atom.arity(); ++p) {
      const Term& t = atom.terms[p];
      if (t.is_const()) {
        *value = t.constant;
      } else if (assigned_[t.var]) {
        *value = assignment_[t.var];
      } else {
        continue;
      }
      *pos = p;
      return true;
    }
    return false;
  }

  bool Unify(const Term& t, const Value& v) {
    if (t.is_const()) return t.constant == v;
    if (assigned_[t.var]) return assignment_[t.var] == v;
    assignment_[t.var] = v;
    assigned_[t.var] = 1;
    trail_.push_back(t.var);
    return true;
  }

  bool UnifyAgainstFact(const Atom& atom, const Fact& fact) {
    for (int pos = 0; pos < atom.arity(); ++pos) {
      if (!Unify(atom.terms[pos], fact.values[pos])) return false;
    }
    return true;
  }

  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      assigned_[trail_.back()] = 0;
      trail_.pop_back();
    }
  }

  const ConfigView& conf_;
  const AccessMethod& method_;
  const Access& access_;
  const ConjunctiveQuery* d_ = nullptr;
  std::vector<Value>& assignment_;
  std::vector<char>& assigned_;
  std::vector<VarId>& trail_;
};

}  // namespace

bool HasImmediateWitness(const ConfigView& conf, const AccessMethodSet& acs,
                         const Access& access, const UnionQuery& query,
                         IrScratch* scratch) {
  IrSearch search(conf, acs.method(access.method), access, scratch);
  for (const ConjunctiveQuery& d : query.disjuncts) {
    if (search.Run(d)) return true;
  }
  return false;
}

bool EvalBoolIndexed(const UnionQuery& query, const ConfigView& conf,
                     IrScratch* scratch) {
  // A method over no relation: no atom can be witnessed by the access, so
  // the search matches every atom against `conf`.
  const AccessMethod no_method;
  const Access no_access;
  IrSearch search(conf, no_method, no_access, scratch);
  for (const ConjunctiveQuery& d : query.disjuncts) {
    if (search.Run(d)) return true;
  }
  return false;
}

bool IsImmediatelyRelevant(const ConfigView& conf,
                           const AccessMethodSet& acs, const Access& access,
                           const UnionQuery& query) {
  if (!CheckWellFormed(conf, acs, access).ok()) return false;
  if (EvalBool(query, conf)) return false;  // already certain
  IrScratch scratch;
  return HasImmediateWitness(conf, acs, access, query, &scratch);
}

}  // namespace rar
