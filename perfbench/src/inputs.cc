#include "inputs.h"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

PAtom A(std::string pred, std::vector<std::string> args) {
  return PAtom{std::move(pred), std::move(args)};
}

/// Constant names under a seeded relabelling: element i of one kind is
/// named `<prefix><perm[i]>`. Each input's structure is a function of its
/// size alone and the seed only renames it, so every seed asks for the
/// same work and run-to-run spread is the machine's, not the input's.
class Namer {
 public:
  Namer(uint64_t seed, const std::string& prefix, int n)
      : prefix_(prefix), perm_(static_cast<size_t>(n)) {
    for (int i = 0; i < n; ++i) perm_[static_cast<size_t>(i)] = i;
    Rng rng(seed * 0x100000001b3ull + std::hash<std::string>()(prefix));
    for (int i = n - 1; i > 0; --i) {
      std::swap(perm_[static_cast<size_t>(i)],
                perm_[rng.Below(static_cast<uint32_t>(i) + 1)]);
    }
  }
  std::string operator()(int i) const {
    return prefix_ + std::to_string(perm_[static_cast<size_t>(i)]);
  }
  int size() const { return static_cast<int>(perm_.size()); }

 private:
  std::string prefix_;
  std::vector<int> perm_;
};

/// Adds exactly `count` (at most n(n-1)) distinct pairs (a, b), a != b, of
/// `name`d elements.
void AddRandomPairs(Rng* rng, const std::string& pred, const Namer& name,
                    int count, Db* db) {
  const int n = name.size();
  TupleSet& rel = db->rel[pred];
  const size_t target =
      rel.size() + static_cast<size_t>(std::min(count, n * (n - 1)));
  while (rel.size() < target) {
    const int a = static_cast<int>(rng->Below(n));
    const int b = static_cast<int>(rng->Below(n));
    if (a != b) rel.insert({name(a), name(b)});
  }
}

}  // namespace

Spec GuardedFamily(uint64_t seed, int persons) {
  Rng rng(static_cast<uint64_t>(persons));
  Spec s;
  const int courses = persons / 6 + 1;
  const Namer person(seed, "p", persons), course(seed, "c", courses);
  for (int k = 0; k < courses; ++k) s.db.Add("course", {course(k)});
  for (int i = 0; i < persons; ++i) {
    const std::string p = person(i);
    s.db.Add("person", {p});
    if (i % 2 == 0) s.db.Add("student", {p});
    if (i % 6 == 0) s.db.Add("enrolled", {p, course((i / 6) % courses)});
    if (i % 10 == 5) s.db.Add("teaches", {p, course((i / 10) % courses)});
  }
  AddRandomPairs(&rng, "knows", person, persons * 3 / 2, &s.db);
  s.rules = {
      {{A("person", {"X"})}, {A("parent", {"X", "Y"}), A("person", {"Y"})}},
      {{A("student", {"X"})}, {A("enrolled", {"X", "C"}), A("course", {"C"})}},
      {{A("course", {"C"})}, {A("taughtBy", {"C", "P"}), A("prof", {"P"})}},
      {{A("prof", {"P"})}, {A("person", {"P"})}},
      {{A("teaches", {"P", "C"})}, {A("taughtBy", {"C", "P"})}},
      {{A("knows", {"X", "Y"})}, {A("acquainted", {"Y", "X"})}},
      {{A("enrolled", {"X", "C"})}, {A("student", {"X"})}},
  };
  s.queries = {
      {"qa", {"X"}, {A("parent", {"X", "Y"}), A("parent", {"Y", "Z"})}},
      {"qb",
       {"X"},
       {A("enrolled", {"X", "C"}), A("taughtBy", {"C", "P"}),
        A("parent", {"P", "G"})}},
      {"qc",
       {"X", "Y"},
       {A("knows", {"X", "Y"}), A("enrolled", {"Y", "C"}),
        A("course", {"C"})}},
      {"qd",
       {"X"},
       {A("acquainted", {"X", "Y"}), A("student", {"Y"}),
        A("parent", {"X", "Z"})}},
      {"qe",
       {},
       {A("knows", {"X", "Y"}), A("knows", {"Y", "X"}),
        A("parent", {"X", "Z"})}},
  };
  return s;
}

Spec TransitiveClosure(uint64_t seed, int nodes, int edges) {
  Rng rng(static_cast<uint64_t>(nodes));
  Spec s;
  AddRandomPairs(&rng, "edge", Namer(seed, "v", nodes), edges, &s.db);
  s.rules = {
      {{A("edge", {"X", "Y"})}, {A("path", {"X", "Y"})}},
      {{A("path", {"X", "Y"}), A("edge", {"Y", "Z"})}, {A("path", {"X", "Z"})}},
  };
  return s;
}

Spec Organisation(uint64_t seed, int employees, OrgCounts* counts) {
  Rng rng(static_cast<uint64_t>(employees));
  Spec s;
  const int depts = employees / 20 + 1;
  const Namer dept(seed, "d", depts), boss(seed, "b", depts),
      employee(seed, "e", employees);
  std::vector<bool> senior(depts);
  for (int d = 0; d < depts; ++d) {
    s.db.Add("mgr", {dept(d), boss(d)});
    senior[d] = d % 5 < 2;
    if (senior[d]) s.db.Add("senior", {boss(d)});
  }
  size_t flagged = 0;
  for (int e = 0; e < employees; ++e) {
    const int d = static_cast<int>(rng.Below(depts));
    s.db.Add("emp", {employee(e), dept(d)});
    if (senior[d]) ++flagged;
  }
  s.rules = {
      {{A("emp", {"E", "D"}), A("mgr", {"D", "M"})}, {A("reports", {"E", "M"})}},
      {{A("reports", {"E", "M"})},
       {A("review", {"E", "M", "R"}), A("assessor", {"R"})}},
      {{A("review", {"E", "M", "R"}), A("senior", {"M"})},
       {A("flagged", {"E", "R"})}},
      {{A("flagged", {"E", "R"})}, {A("audit", {"R", "A"})}},
  };
  // Every employee has exactly one department and every department one
  // manager: one reports, review and assessor fact (and null) per
  // employee, plus one flagged and audit fact (and null) per employee
  // under a senior manager.
  const size_t e = static_cast<size_t>(employees);
  counts->facts = s.db.Size() + 3 * e + 2 * flagged;
  counts->nulls = e + flagged;
  return s;
}

std::string CheckCounts(const OrgCounts& want, size_t facts, size_t nulls) {
  if (facts != want.facts) {
    return "facts " + std::to_string(facts) + " != closed form " +
           std::to_string(want.facts);
  }
  if (nulls != want.nulls) {
    return "nulls " + std::to_string(nulls) + " != closed form " +
           std::to_string(want.nulls);
  }
  return "";
}

Spec Company(uint64_t seed, int employees) {
  Rng rng(static_cast<uint64_t>(employees));
  Spec s;
  const int depts = employees / 25 + 2;
  const Namer employee(seed, "e", employees), dept(seed, "d", depts);
  for (int i = 0; i < employees; ++i) {
    const std::string e = employee(i);
    // The first `depts` employees head their own departments, so every
    // department is non-empty and its head is one of its employees.
    const int d = i < depts ? i : static_cast<int>(rng.Below(depts));
    s.db.Add("person", {e});
    s.db.Add("emp", {e, dept(d)});
    if (i < depts) {
      s.db.Add("dept", {dept(d)});
      s.db.Add("head", {dept(d), e});
      s.db.Add("senior", {e});
    } else if (i % 10 == 0) {
      s.db.Add("senior", {e});
    }
  }
  AddRandomPairs(&rng, "knows", employee, employees * 2, &s.db);
  s.rules = {
      {{A("emp", {"E", "D"})}, {A("dept", {"D"})}},
      {{A("emp", {"E", "D"})}, {A("person", {"E"})}},
      {{A("dept", {"D"})}, {A("head", {"D", "M"})}},
      {{A("head", {"D", "M"})}, {A("emp", {"M", "D"})}},
      {{A("head", {"D", "M"})}, {A("senior", {"M"})}},
      {{A("knows", {"X", "Y"})}, {A("person", {"Y"})}},
  };
  s.queries = {
      {"q1", {"E", "M"}, {A("emp", {"E", "D"}), A("head", {"D", "M"})}},
      {"q2",
       {"E", "F"},
       {A("knows", {"E", "F"}), A("emp", {"E", "D"}), A("emp", {"F", "D"})}},
      {"q3",
       {},
       {A("knows", {"X", "Y"}), A("knows", {"Y", "Z"}), A("knows", {"Z", "X"})}},
      {"q4",
       {},
       {A("head", {"D", "M"}), A("knows", {"M", "E"}), A("senior", {"E"}),
        A("emp", {"E", "D"})}},
      {"q5",
       {"E"},
       {A("senior", {"E"}), A("knows", {"E", "F"}), A("head", {"D", "F"})}},
  };
  return s;
}

}  // namespace perfbench
