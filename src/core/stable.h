// Stable (default) model checking, Section 2 [BF1, GL], via the
// Gelfond–Lifschitz reduct: a total model M is stable iff M = LFP(Π^M),
// where Π^M drops every rule instance with a negative literal true in M and
// strips the negative literals from the rest, and Δ's atoms are facts.
// A stable model is a fixpoint, and LFP(Π^M) ⊆ M holds for every fixpoint
// M, so the check is the fixpoint test plus "every true atom is derived".
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

/// Resource-governed stability check, in at most two passes over the graph
/// and no CloseState. One sweep over the atoms does the fixpoint test (M
/// is total, Δ atoms are true, EDB atoms are true iff in Δ, an IDB atom is
/// true iff some supporter's body is true in M) and marks a true atom
/// derived when it is in Δ or one of those supporters has no positive
/// body. Only if some true atom is supported solely through positive
/// bodies does a counter pass run: Dowling–Gallier over the rules whose
/// body is true in M, seeded from the derived atoms. M is stable iff every
/// true atom ends up derived. With a non-null `context` the sweep is one
/// "stable" checkpoint and the counter pass checkpoints every 256 atoms; a
/// trip returns the context's Status instead of a verdict from a partial
/// pass. A null `context` is ungoverned and always yields a verdict;
/// IsStable is that call.
Result<bool> IsStableGoverned(const Program& program, const Database& database,
                              const GroundGraph& graph,
                              const std::vector<Truth>& values,
                              ExecutionContext* context);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_STABLE_H_
