// Shared knobs for the ground-graph interpreters in src/core/.
#ifndef TIEBREAK_CORE_INTERPRETER_OPTIONS_H_
#define TIEBREAK_CORE_INTERPRETER_OPTIONS_H_

#include <cstdint>

namespace tiebreak {

class ExecutionContext;

/// Options accepted by every interpreter entry point that evaluates a
/// ground graph. `num_threads == 1` (the default) runs the serial path;
/// `> 1` lets the perfect-model interpreter run the waves of its SCC
/// schedule on a thread pool, and the alternating fixpoint and the
/// completion encoder split rule blocks across one; `<= 0` means hardware
/// concurrency. WellFounded and TieBreaking always run serially and ignore
/// the count. Every thread count computes the same model. The context, when
/// non-null, governs the run through amortized checkpoints — the truncation
/// contract (decided atoms agree with the full model, the rest are kUndef)
/// is thread-count independent.
struct InterpreterOptions {
  int32_t num_threads = 1;
  ExecutionContext* context = nullptr;
};

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_INTERPRETER_OPTIONS_H_
