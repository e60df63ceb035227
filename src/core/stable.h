// Stable (default) model checking, Section 2 [BF1, GL], via the ground
// graph: a total model M extending M0(Δ) is stable iff close(M⁻, G)
// reconstructs M, where M⁻ un-defines the true IDB atoms that are not in Δ.
#ifndef TIEBREAK_CORE_STABLE_H_
#define TIEBREAK_CORE_STABLE_H_

#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// True iff the total model `values` is a stable model of (program,
/// database) over `graph`. A model that is not total is not a fixpoint,
/// so the answer for it is false.
bool IsStable(const Program& program, const Database& database,
              const GroundGraph& graph, const std::vector<Truth>& values);

/// Resource-governed stability check: close(M⁻, G) checkpoints through
/// `context`, and a trip returns the context's Status instead of a
/// (meaningless) verdict from a partial closure. A null `context` is
/// ungoverned and always yields a verdict; IsStable is that call.
Result<bool> IsStableGoverned(const Program& program, const Database& database,
                              const GroundGraph& graph,
                              const std::vector<Truth>& values,
                              ExecutionContext* context);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_STABLE_H_
