// Structured inputs and the independent oracles that check gqe's outputs.
//
// Generators build programs as plain string tuples (`Spec`), render them to
// gqe's text syntax, and the oracles below evaluate the same `Spec` with
// code of their own: a hash-indexed nested-loop join, a naive Datalog
// fixpoint over a Skolem-collapsed model, and BFS reachability. None of
// them calls gqe's guarded or query engines; the only gqe calls on an
// oracle path are ParseProgram and the bounded oblivious `Chase` that give
// the sound lower bound of the open-world sandwich (OpenWorldBounds).
#ifndef GQE_PERFBENCH_ORACLE_H_
#define GQE_PERFBENCH_ORACLE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Tuple = std::vector<std::string>;
using TupleSet = std::set<Tuple>;

/// A database: relation name -> tuples of constant names.
struct Db {
  std::map<std::string, TupleSet> rel;
  void Add(const std::string& pred, Tuple tuple) {
    rel[pred].insert(std::move(tuple));
  }
  size_t Size() const;
  std::set<std::string> Domain() const;
};

/// An atom over variables (uppercase first letter) and constants.
struct PAtom {
  std::string pred;
  std::vector<std::string> args;
};

struct Rule {
  std::vector<PAtom> body;
  std::vector<PAtom> head;
};

struct Query {
  std::string name;
  std::vector<std::string> head;  // answer variables; empty = Boolean
  std::vector<PAtom> body;
};

/// One program: D, Σ and one named query (absent for chase programs).
struct Spec {
  Db db;
  std::vector<Rule> rules;
  std::vector<Query> queries;
  std::string Render() const;
};

bool IsVariable(const std::string& term);

/// q(D) by nested-loop join (each atom probes a hash index on its first
/// bound argument). With `domain`, keeps only tuples over that set.
TupleSet JoinAnswers(const Db& db, const Query& query,
                     const std::set<std::string>* domain = nullptr);

/// A finite model of (D, Σ): every existential variable of rule r is
/// collapsed to the one constant `sk<r>_<var>`, then the resulting full
/// rules are applied naively to a fixpoint. Certain answers are contained
/// in the answers on any model.
Db SkolemCollapsedModel(const Db& db, const std::vector<Rule>& rules);

/// The open-world sandwich for a guarded program and one of its queries:
/// `lower` holds the answers over dom(D) on gqe's bounded oblivious chase
/// to `level` (sound: chase^level ⊆ chase), `upper` those on the
/// Skolem-collapsed finite model (complete: any model contains the
/// certain answers).
void OpenWorldBounds(const Spec& spec, const Query& query, int level,
                     TupleSet* lower, TupleSet* upper);

/// Pairs (x, y) with y reachable from x by at least one edge.
TupleSet Reachability(const TupleSet& edges);

/// Renders answers the way gqe's serve worker digests them:
/// `name(a, b)\n` per tuple, in the given order.
std::string AnswerDigest(const std::string& name,
                         const std::vector<Tuple>& ordered);

/// Compares an answer set against expected bounds: lower ⊆ got ⊆ upper.
/// Returns an empty string when it holds, else a reason.
std::string CheckSandwich(const TupleSet& lower, const TupleSet& got,
                          const TupleSet& upper);
/// Returns an empty string when got == want, else a reason.
std::string CheckEqual(const TupleSet& want, const TupleSet& got);

}  // namespace perfbench

#endif  // GQE_PERFBENCH_ORACLE_H_
