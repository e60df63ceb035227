// Algorithm Well-Founded of Section 2 [VRS]: repeatedly falsify the largest
// unfounded set and close, until no nonempty unfounded set remains. When the
// computed model is total it is a fixpoint and the unique stable model.
#ifndef TIEBREAK_CORE_WELL_FOUNDED_H_
#define TIEBREAK_CORE_WELL_FOUNDED_H_

#include "core/interpreter_options.h"
#include "core/interpreter_result.h"
#include "ground/grounder.h"
#include "lang/database.h"
#include "lang/program.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// Runs the well-founded interpreter on a previously grounded instance.
/// With a non-null `context`, the run checkpoints inside close/unfounded
/// propagation and once per outer round; on a trip it stops early and
/// returns a sound partial result with InterpreterResult::truncation set
/// (close only makes forced assignments and unfounded-set falsification is
/// monotone, so every decided atom agrees with the full well-founded
/// model).
InterpreterResult WellFounded(const Program& program, const Database& database,
                              const GroundGraph& graph,
                              ExecutionContext* context = nullptr);

/// Options overload, same run as above under `options.context`.
/// `options.num_threads` changes nothing here: the interpreter always
/// closes with the serial CloseState (a wave-parallel close cost more than
/// it saved on 4 cores; docs/benchmarks.md has the figures).
InterpreterResult WellFounded(const Program& program, const Database& database,
                              const GroundGraph& graph,
                              const InterpreterOptions& options);

/// Convenience overload: grounds (reduced mode) and interprets. `context`
/// governs both phases: a trip during grounding returns its Status, a trip
/// during interpretation returns a truncated partial result (see above).
Result<InterpreterResult> WellFounded(const Program& program,
                                      const Database& database,
                                      ExecutionContext* context = nullptr);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_WELL_FOUNDED_H_
