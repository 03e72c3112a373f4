// Seeded input programs for the workloads. Every generator is a pure
// function of its seed and size, so equal seeds give byte-equal programs.
// The size fixes an input's structure; the seed relabels its constants.
#ifndef GQE_PERFBENCH_INPUTS_H_
#define GQE_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "oracle.h"

namespace perfbench {

/// Open-world family: persons, students, courses and `knows` edges under a
/// guarded ontology whose existential rules recurse (every person has a
/// parent who is a person; every course is taught by a professor who is a
/// person), so the chase is infinite. Queries qa..qe, see inputs.cc.
Spec GuardedFamily(uint64_t seed, int persons);
/// Chase level at which the bounded chase meets every certain answer of
/// GuardedFamily's queries.
constexpr int kGuardedLowerLevel = 4;

/// Transitive closure over a random digraph (full recursive join rules).
Spec TransitiveClosure(uint64_t seed, int nodes, int edges);

/// Weakly acyclic, non-guarded existential rules with joins over an
/// organisation: each employee gets a review by a fresh assessor, and
/// reviews under a senior manager get a fresh auditor.
struct OrgCounts {
  size_t facts = 0;  // |chase(D, Σ)|
  size_t nulls = 0;  // labelled nulls the chase invents
};
Spec Organisation(uint64_t seed, int employees, OrgCounts* counts);
/// "" when a chase of an organisation program matches the closed forms.
std::string CheckCounts(const OrgCounts& want, size_t facts, size_t nulls);

/// Closed-world company database satisfying its constraints by
/// construction, with treewidth-1/2 queries q1..q5 (q3, q4 Boolean).
Spec Company(uint64_t seed, int employees);

}  // namespace perfbench

#endif  // GQE_PERFBENCH_INPUTS_H_
