#include "core/fixpoint.h"

namespace tiebreak {

bool BodyTrue(const GroundGraph& graph, int32_t rule,
              const std::vector<Truth>& values) {
  for (AtomId a : graph.PositiveBody(rule)) {
    if (values[a] != Truth::kTrue) return false;
  }
  for (AtomId a : graph.NegativeBody(rule)) {
    if (values[a] != Truth::kFalse) return false;
  }
  return true;
}

bool IsFixpoint(const Program& program, const Database& database,
                const GroundGraph& graph, const std::vector<Truth>& values) {
  TIEBREAK_CHECK_EQ(static_cast<int32_t>(values.size()), graph.num_atoms());
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (values[a] == Truth::kUndef) return false;  // not total
    bool expected = in_delta[a] != 0;
    if (!expected && !program.IsEdb(graph.atoms().PredicateOf(a))) {
      for (int32_t r : graph.Supporters(a)) {
        if (BodyTrue(graph, r, values)) {
          expected = true;
          break;
        }
      }
    }
    if ((values[a] == Truth::kTrue) != expected) return false;
  }
  return true;
}

bool IsConsistent(const Program& program, const Database& database,
                  const GroundGraph& graph, const std::vector<Truth>& values) {
  TIEBREAK_CHECK_EQ(static_cast<int32_t>(values.size()), graph.num_atoms());
  // Extends M0(Δ): Δ atoms true; EDB atoms (present only in faithful
  // graphs) match Δ exactly.
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (in_delta[a] && values[a] != Truth::kTrue) return false;
    if (!in_delta[a] && program.IsEdb(graph.atoms().PredicateOf(a)) &&
        values[a] != Truth::kFalse) {
      return false;
    }
  }
  // Every instantiated rule with a true body has a true head.
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    if (BodyTrue(graph, r, values) &&
        values[graph.HeadOf(r)] != Truth::kTrue) {
      return false;
    }
  }
  return true;
}

bool TrueAtomsSupported(const Program& program, const Database& database,
                        const GroundGraph& graph,
                        const std::vector<Truth>& values) {
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (values[a] != Truth::kTrue) continue;
    if (program.IsEdb(graph.atoms().PredicateOf(a))) continue;
    if (in_delta[a]) continue;
    bool supported = false;
    for (int32_t r : graph.Supporters(a)) {
      if (BodyTrue(graph, r, values)) {
        supported = true;
        break;
      }
    }
    if (!supported) return false;
  }
  return true;
}

}  // namespace tiebreak
