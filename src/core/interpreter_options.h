// Shared knobs for the ground-graph interpreters in src/core/.
#ifndef TIEBREAK_CORE_INTERPRETER_OPTIONS_H_
#define TIEBREAK_CORE_INTERPRETER_OPTIONS_H_

#include <cstdint>

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// Options taken by the WellFounded and TieBreaking overloads that accept
/// them. Every interpreter runs serially on the calling thread, so
/// `num_threads` is accepted and ignored: a caller may pass the thread
/// count it grounds with. The context, when non-null, governs the run
/// through amortized checkpoints; a truncated run's decided atoms agree
/// with the full model and the rest are kUndef.
struct InterpreterOptions {
  int32_t num_threads = 1;
  ExecutionContext* context = nullptr;
};

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_INTERPRETER_OPTIONS_H_
