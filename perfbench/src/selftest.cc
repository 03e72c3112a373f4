// Oracle self-test: each check the workloads apply must reject an answer
// set with one answer dropped and one with a non-answer added, or, for a
// Boolean query, the answer flipped.
#include <cstdio>
#include <functional>
#include <set>

#include "chase/chase.h"
#include "inputs.h"
#include "parser/parser.h"
#include "workload.h"

namespace perfbench {
namespace {

/// A tuple over `domain` with `arity` positions that is not in `avoid`.
bool NonAnswer(const std::set<std::string>& domain, size_t arity,
               const TupleSet& avoid, Tuple* out) {
  std::vector<std::string> values(domain.begin(), domain.end());
  if (values.empty() || arity == 0) return false;
  for (size_t pick = 0; pick < values.size() * values.size(); ++pick) {
    Tuple t;
    size_t rest = pick;
    for (size_t i = 0; i < arity; ++i) {
      t.push_back(values[rest % values.size()]);
      rest /= values.size();
    }
    if (!avoid.count(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

int Expect(bool rejected, const std::string& what) {
  std::fprintf(stderr, "self-test: %-48s %s\n", what.c_str(),
               rejected ? "rejected" : "NOT REJECTED");
  return rejected ? 0 : 1;
}

/// Drops the first answer of `good` and adds a non-answer from outside
/// `outside`; `check` returns an empty string on acceptance.
int Perturb(const std::string& label, const TupleSet& good,
            const TupleSet& outside, const std::set<std::string>& domain,
            size_t arity,
            const std::function<std::string(const TupleSet&)>& check) {
  int missed = 0;
  if (!check(good).empty()) {
    std::fprintf(stderr, "self-test: %s rejects the correct answers: %s\n",
                 label.c_str(), check(good).c_str());
    ++missed;
  }
  TupleSet dropped = good;
  if (!dropped.empty()) dropped.erase(dropped.begin());
  missed += Expect(!good.empty() && !check(dropped).empty(),
                   label + ": one answer dropped");
  TupleSet added = good;
  Tuple extra;
  const bool found = NonAnswer(domain, arity, outside, &extra);
  added.insert(extra);
  missed += Expect(found && !check(added).empty(),
                   label + ": one non-answer added");
  return missed;
}

/// A Boolean query's answer set is {()} or {}: the flipped set must be
/// rejected.
int Flip(const std::string& label, const TupleSet& good,
         const std::function<std::string(const TupleSet&)>& check) {
  int missed = 0;
  if (!check(good).empty()) {
    std::fprintf(stderr, "self-test: %s rejects the correct answer: %s\n",
                 label.c_str(), check(good).c_str());
    ++missed;
  }
  const TupleSet flipped = good.empty() ? TupleSet{Tuple{}} : TupleSet{};
  return missed + Expect(!check(flipped).empty(),
                         label + (good.empty() ? ": false turned true"
                                               : ": true turned false"));
}

}  // namespace

int RunOracleSelfTest(uint64_t seed) {
  int missed = 0;

  // omq_guarded: the open-world sandwich.
  const Spec family = GuardedFamily(seed, 12);
  for (const Query& q : family.queries) {
    TupleSet lower, upper;
    OpenWorldBounds(family, q, kGuardedLowerLevel, &lower, &upper);
    auto sandwich = [&](const TupleSet& got) {
      return CheckSandwich(lower, got, upper);
    };
    if (q.head.empty()) {
      missed += Flip("omq_guarded/" + q.name, lower, sandwich);
      continue;
    }
    missed += Perturb("omq_guarded/" + q.name, lower, upper,
                      family.db.Domain(), q.head.size(), sandwich);
  }

  // chase_materialize: transitive closure against BFS reachability, and
  // the organisation's closed-form fact and null counts.
  const Spec tc = TransitiveClosure(seed, 20, 26);
  const TupleSet reach = Reachability(tc.db.rel.at("edge"));
  missed += Perturb("chase_materialize/tc", reach, reach, tc.db.Domain(), 2,
                    [&](const TupleSet& got) { return CheckEqual(reach, got); });
  // The organisation's counts are those of gqe's chase of the program,
  // counted as the workload counts them.
  OrgCounts counts;
  const Spec org = Organisation(seed, 100, &counts);
  const gqe::ParseResult parsed = gqe::ParseProgram(org.Render());
  const gqe::ChaseResult chased =
      gqe::Chase(parsed.program.database, parsed.program.tgds);
  std::set<uint32_t> nulls;
  for (const gqe::Atom& atom : chased.instance.atoms()) {
    for (gqe::Term t : atom.args()) {
      if (t.kind() == gqe::Term::Kind::kNull) nulls.insert(t.bits());
    }
  }
  const size_t facts = chased.instance.size();
  const std::string org_why = CheckCounts(counts, facts, nulls.size());
  if (!parsed.ok || !chased.complete || !org_why.empty()) {
    std::fprintf(stderr, "self-test: chase_materialize/org rejects gqe's "
                 "chase: %s\n", org_why.c_str());
    ++missed;
  }
  missed += Expect(!CheckCounts(counts, facts - 1, nulls.size()).empty(),
                   "chase_materialize/org: one fact dropped");
  missed += Expect(!CheckCounts(counts, facts + 1, nulls.size()).empty(),
                   "chase_materialize/org: one fact added");
  missed += Expect(!CheckCounts(counts, facts, nulls.size() + 1).empty(),
                   "chase_materialize/org: one null added");

  // cqs_query: nested-loop join equality.
  const Spec company = Company(seed, 800);
  for (const Query& q : company.queries) {
    const TupleSet want = JoinAnswers(company.db, q);
    auto equal = [&](const TupleSet& got) { return CheckEqual(want, got); };
    if (q.head.empty()) {
      missed += Flip("cqs_query/" + q.name, want, equal);
      continue;
    }
    missed += Perturb("cqs_query/" + q.name, want, want, company.db.Domain(),
                      q.head.size(), equal);
  }

  // serve_mix: the result line's answer count and digest.
  const Query& q1 = company.queries[0];
  const TupleSet want = JoinAnswers(company.db, q1);
  std::vector<Tuple> ordered(want.begin(), want.end());
  const uint32_t crc = Crc32(AnswerDigest(q1.name, ordered));
  std::vector<Tuple> dropped(ordered.begin() + 1, ordered.end());
  missed += Expect(Crc32(AnswerDigest(q1.name, dropped)) != crc,
                   "serve_mix/q1: digest with one answer dropped");
  std::vector<Tuple> added = ordered;
  Tuple extra;
  const bool found = NonAnswer(company.db.Domain(), 2, want, &extra);
  added.push_back(extra);
  missed += Expect(found && Crc32(AnswerDigest(q1.name, added)) != crc,
                   "serve_mix/q1: digest with one non-answer added");
  return missed;
}

}  // namespace perfbench
