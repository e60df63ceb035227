// Local stratification and the perfect model [Pr], Section 3: a program/
// database pair is locally stratified when no SCC of the ground graph
// contains a negative edge; the perfect model evaluates the ground SCCs
// bottom-up, minimizing lower levels first. The paper observes that both
// tie-breaking interpreters compute exactly the perfect model on locally
// stratified inputs (an SCC with no negative edges is a tie with one empty
// side) — tested in core_test.cc.
#ifndef TIEBREAK_CORE_PERFECT_MODEL_H_
#define TIEBREAK_CORE_PERFECT_MODEL_H_

#include <optional>
#include <vector>

#include "core/interpreter_result.h"
#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// True iff no SCC of the ground graph contains a negative edge. (On
/// reduced graphs this judges the *relevant* instantiations — EDB-dead rule
/// nodes cannot resurrect a negative cycle semantically.)
bool IsLocallyStratified(const Program& program, const Database& database,
                         const GroundGraph& graph);

/// Instance-level Theorem 1: true iff the ground graph has no cycle with an
/// odd number of negative edges. When it holds, every bottom component the
/// interpreters ever see is a tie, so the tie-breaking interpreters produce
/// a total model for *this* instance under every choice — even when the
/// program itself is not call-consistent (e.g. win-move on a board whose
/// draw cycles are all even).
bool IsGroundCallConsistent(const GroundGraph& graph);

/// The perfect model of a locally stratified instance: per-SCC bottom-up
/// least fixpoints in topological order. nullopt when the instance is not
/// locally stratified.
std::optional<std::vector<Truth>> PerfectModel(const Program& program,
                                               const Database& database,
                                               const GroundGraph& graph);

/// Resource-governed perfect model. Fails with FAILED_PRECONDITION when the
/// instance is not locally stratified. With a non-null tripping `context`,
/// returns OK with InterpreterResult::truncation set and a sound partial
/// model: components processed before the trip are final, atoms of
/// unfinished components keep kTrue only when already derived (within-
/// component fixpoints are monotone over final dependencies) and are
/// otherwise kUndef.
Result<InterpreterResult> PerfectModelGoverned(const Program& program,
                                               const Database& database,
                                               const GroundGraph& graph,
                                               ExecutionContext* context);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_PERFECT_MODEL_H_
