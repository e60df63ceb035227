// Internal to src/core, not part of the library's surface: the fixpoint
// test over Δ's atom mask already built. IsFixpoint builds the mask and
// calls it; the stability check builds the mask once for both the fixpoint
// test and M⁻.
#ifndef TIEBREAK_CORE_FIXPOINT_INTERNAL_H_
#define TIEBREAK_CORE_FIXPOINT_INTERNAL_H_

#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/program.h"

namespace tiebreak {
namespace internal {

/// IsFixpoint, given in_delta == DeltaAtomMask(database, graph.atoms()).
bool IsFixpointOverDelta(const Program& program,
                         const std::vector<char>& in_delta,
                         const GroundGraph& graph,
                         const std::vector<Truth>& values);

}  // namespace internal
}  // namespace tiebreak

#endif  // TIEBREAK_CORE_FIXPOINT_INTERNAL_H_
