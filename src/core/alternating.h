// Van Gelder's alternating fixpoint characterization of the well-founded
// semantics — implemented as an *independent second computation* of the
// well-founded model, used to cross-validate the unfounded-set interpreter
// of core/well_founded.h (the two must agree on every instance; tested).
//
// T_J is the immediate-consequence least fixpoint where negated literals are
// evaluated against a fixed set J (¬b holds iff b ∉ J). The sequence
//   A_0 = ∅,  B_k = T(A_k),  A_{k+1} = T(B_k)
// has A ascending (underestimates of true) and B descending (overestimates);
// at the limit: true = A_∞, false = complement of B_∞, undefined = B_∞ \ A_∞.
#ifndef TIEBREAK_CORE_ALTERNATING_H_
#define TIEBREAK_CORE_ALTERNATING_H_

#include "core/interpreter_result.h"
#include "ground/ground_graph.h"
#include "lang/database.h"
#include "lang/program.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// Computes the well-founded model by alternating fixpoints. Semantically
/// identical to WellFounded(); asymptotically slower (naive inner fixpoints)
/// but completely independent code.
///
/// With a non-null `context`, inner fixpoint sweeps checkpoint; on a trip
/// the run stops at the last *completed* alternation boundary and returns a
/// sound partial result (truncation set): A_k only contains atoms true in
/// the well-founded model and the complement of B_k only atoms false in it,
/// at every k — everything else is left kUndef.
InterpreterResult AlternatingFixpointWellFounded(
    const Program& program, const Database& database, const GroundGraph& graph,
    ExecutionContext* context = nullptr);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_ALTERNATING_H_
