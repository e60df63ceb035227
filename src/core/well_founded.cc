#include "core/well_founded.h"

#include <utility>
#include <vector>

#include "ground/close.h"
#include "util/execution_context.h"

namespace tiebreak {

InterpreterResult WellFounded(const Program& program, const Database& database,
                              const GroundGraph& graph,
                              ExecutionContext* context) {
  // The VRS loop: falsify the largest unfounded set and re-close until none
  // remains.
  CloseState state(program, database, graph, context);
  InterpreterResult result;
  while (true) {
    ++result.iterations;
    // One checkpoint per outer round; a tripped context also empties
    // LargestUnfoundedSet, so the loop is guaranteed to exit.
    if (context != nullptr &&
        !context->Checkpoint("well_founded", 1).ok()) {
      break;
    }
    // A total state has no live rule left, so nothing can change.
    if (state.IsTotal()) break;
    const std::vector<AtomId> unfounded = state.LargestUnfoundedSet();
    if (unfounded.empty()) break;
    ++result.unfounded_rounds;
    std::vector<std::pair<AtomId, bool>> assignments;
    assignments.reserve(unfounded.size());
    for (AtomId a : unfounded) assignments.emplace_back(a, false);
    state.SetAndClose(assignments);
  }
  result.values = state.values();
  // A tripped run is a prefix of the full computation: all its assignments
  // are forced, but undecided atoms may merely be unreached, so the model
  // is not claimed total even if no kUndef remains visible.
  if (context != nullptr && context->stopped()) {
    result.truncation = context->status();
    result.total = false;
  } else {
    result.total = state.IsTotal();
  }
  return result;
}

InterpreterResult WellFounded(const Program& program, const Database& database,
                              const GroundGraph& graph,
                              const InterpreterOptions& options) {
  return WellFounded(program, database, graph, options.context);
}

Result<InterpreterResult> WellFounded(const Program& program,
                                      const Database& database,
                                      ExecutionContext* context) {
  GroundingOptions options;
  options.context = context;
  Result<GroundingResult> ground = Ground(program, database, options);
  if (!ground.ok()) return ground.status();
  return WellFounded(program, database, ground->graph, context);
}

}  // namespace tiebreak
