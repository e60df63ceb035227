// Common result type for the interpreters of Sections 2 and 3 (well-founded,
// pure tie-breaking, well-founded tie-breaking) plus query helpers.
#ifndef TIEBREAK_CORE_INTERPRETER_RESULT_H_
#define TIEBREAK_CORE_INTERPRETER_RESULT_H_

#include <string>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {

/// The (possibly partial) model an interpreter produced, plus run counters.
struct InterpreterResult {
  /// Truth per AtomId of the ground graph the interpreter ran on. kUndef
  /// entries mean the interpreter got stuck on those atoms.
  std::vector<Truth> values;
  /// True iff every atom received a value (the model is total).
  bool total = false;
  /// Main-loop iterations executed.
  int32_t iterations = 0;
  /// Number of ties broken (tie-breaking interpreters only).
  int32_t ties_broken = 0;
  /// Number of nonempty unfounded sets falsified (WF / WFTB only).
  int32_t unfounded_rounds = 0;
  /// OK for a run that finished on its own. Non-OK (kCancelled /
  /// kDeadlineExceeded / kResourceExhausted) when a governing
  /// ExecutionContext tripped mid-run: `values` then holds a sound partial
  /// answer — every kTrue/kFalse entry agrees with the full model the
  /// interpreter was converging to, and atoms the truncated run could not
  /// decide are kUndef — but kUndef entries can no longer be read as "the
  /// semantics leaves this undefined".
  Status truncation = Status::Ok();

  /// Number of kTrue / kUndef entries in `values`.
  int64_t CountTrue() const {
    int64_t n = 0;
    for (Truth t : values) n += t == Truth::kTrue ? 1 : 0;
    return n;
  }
  int64_t CountUndefined() const {
    int64_t n = 0;
    for (Truth t : values) n += t == Truth::kUndef ? 1 : 0;
    return n;
  }
};

/// Looks up the truth value of `pred(constants...)` in `values`. Atoms that
/// are not in the store are implicitly false for IDB predicates (they have
/// no support in any model over this graph); for EDB predicates under
/// reduced grounding the caller should consult Δ instead.
inline Truth LookupTruth(const Program& program, const GroundGraph& graph,
                         const std::vector<Truth>& values,
                         const std::string& pred,
                         const std::vector<std::string>& constants) {
  const PredId p = program.LookupPredicate(pred);
  TIEBREAK_CHECK_GE(p, 0) << "unknown predicate " << pred;
  Tuple tuple;
  tuple.reserve(constants.size());
  for (const std::string& c : constants) {
    const ConstId id = program.LookupConstant(c);
    TIEBREAK_CHECK_GE(id, 0) << "unknown constant " << c;
    tuple.push_back(id);
  }
  const AtomId atom = graph.atoms().Lookup(p, tuple);
  if (atom < 0) return Truth::kFalse;
  return values[atom];
}

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_INTERPRETER_RESULT_H_
