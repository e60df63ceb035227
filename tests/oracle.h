// Test-only definitional oracle: the paper's definitions taken literally
// on tiny ground graphs, by brute force, with no production interpreter on
// this side. Each function reads a GroundGraph's rule arenas and an
// assignment (Truth per AtomId) and nothing else.
//
// Unfounded sets follow Van Gelder, Ross & Schlipf, in the Fitting-ordered
// reading that Rondogiannis & Symeonidou build on (arXiv 1707.04704): the
// well-founded model is the least fixpoint, in the information order, of
// I ↦ T(I) ∪ ¬U(I), where U(I) is the greatest unfounded set of I. A set U
// of undefined atoms is unfounded when every rule whose head lies in U and
// no body literal of which is false under I has a positive body atom in U.
#ifndef TIEBREAK_TESTS_ORACLE_H_
#define TIEBREAK_TESTS_ORACLE_H_

#include <cstdint>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "util/logging.h"

namespace tiebreak {
namespace oracle {

/// Largest number of undefined atoms GreatestUnfoundedSet enumerates the
/// subsets of.
constexpr int32_t kMaxOpenAtoms = 12;

/// True when some body literal of rule `r` is false under `values`.
inline bool HasFalseLiteral(const GroundGraph& graph, int32_t r,
                            const std::vector<Truth>& values) {
  for (const AtomId b : graph.PositiveBody(r)) {
    if (values[b] == Truth::kFalse) return true;
  }
  for (const AtomId b : graph.NegativeBody(r)) {
    if (values[b] == Truth::kTrue) return true;
  }
  return false;
}

/// The union of every set U of undefined atoms such that each supporter of
/// each atom of U either has a false body literal or has a positive body
/// atom in U, ascending. Enumerates all subsets of the undefined atoms, so
/// it CHECKs that there are at most kMaxOpenAtoms of them.
inline std::vector<AtomId> GreatestUnfoundedSet(
    const GroundGraph& graph, const std::vector<Truth>& values) {
  std::vector<AtomId> open;
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (values[a] == Truth::kUndef) open.push_back(a);
  }
  const int32_t k = static_cast<int32_t>(open.size());
  TIEBREAK_CHECK_LE(k, kMaxOpenAtoms);
  std::vector<char> in_set(graph.num_atoms(), 0);
  uint32_t all = 0;
  for (uint32_t subset = 1; subset < (uint32_t{1} << k); ++subset) {
    for (int32_t i = 0; i < k; ++i) in_set[open[i]] = (subset >> i) & 1;
    bool unfounded = true;
    for (int32_t i = 0; i < k && unfounded; ++i) {
      if (!in_set[open[i]]) continue;
      for (const int32_t r : graph.Supporters(open[i])) {
        if (HasFalseLiteral(graph, r, values)) continue;
        bool inside = false;
        for (const AtomId b : graph.PositiveBody(r)) inside |= in_set[b] != 0;
        if (!inside) {
          unfounded = false;
          break;
        }
      }
    }
    if (unfounded) all |= subset;
  }
  std::vector<AtomId> result;
  for (int32_t i = 0; i < k; ++i) {
    if ((all >> i) & 1) result.push_back(open[i]);
  }
  return result;
}

}  // namespace oracle
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_ORACLE_H_
