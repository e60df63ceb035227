// The stability check as it stood before the one-pass reduct check: the
// fixpoint test, then M⁻ (the true IDB atoms outside Δ made undefined) and
// a full close(M⁻, G); M is stable iff the closure reconstructs M. It is
// kept verbatim (made inline, wrapped in namespace `reference`, the
// fixpoint test through the public IsFixpoint) as the test-only reference
// that stable_differential_test compares the production check against.
// Not for use outside tests/.
#ifndef TIEBREAK_TESTS_REFERENCE_STABLE_H_
#define TIEBREAK_TESTS_REFERENCE_STABLE_H_

#include <vector>

#include "core/fixpoint.h"
#include "ground/close.h"
#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/execution_context.h"
#include "util/status.h"

namespace tiebreak {
namespace reference {

/// Resource-governed stability check: close(M⁻, G) checkpoints through
/// `context`, and a trip returns the context's Status instead of a
/// (meaningless) verdict from a partial closure. A null `context` is
/// ungoverned and always yields a verdict; IsStable is that call.
inline Result<bool> IsStableGoverned(const Program& program,
                                     const Database& database,
                                     const GroundGraph& graph,
                                     const std::vector<Truth>& values,
                                     ExecutionContext* context) {
  TIEBREAK_CHECK_EQ(static_cast<int32_t>(values.size()), graph.num_atoms());
  if (context != nullptr) {
    // The fixpoint pre-check is one linear scan of the rule arenas; charge
    // it as a single checkpoint.
    Status entry = context->Checkpoint("stable", graph.num_rules() + 1);
    if (!entry.ok()) return entry;
  }
  // Every stable model is a fixpoint; rejecting non-fixpoints first also
  // guarantees close(M⁻, G) can never contradict a pre-assigned value (an
  // induction on closure steps shows the closure of M⁻ always agrees with a
  // fixpoint M on the atoms it defines).
  if (!IsFixpoint(program, database, graph, values)) return false;
  // Build M⁻: true IDB atoms outside Δ become undefined; everything else
  // keeps its value.
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  std::vector<Truth> m_minus(values);
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    TIEBREAK_CHECK(values[a] != Truth::kUndef) << "IsStable needs a total model";
    if (values[a] != Truth::kTrue) continue;
    if (program.IsEdb(graph.atoms().PredicateOf(a))) continue;
    if (in_delta[a]) continue;
    m_minus[a] = Truth::kUndef;
  }
  CloseState closed(graph, m_minus, context);
  // A partial closure (trip mid-Drain) proves nothing about
  // reconstruction: report the trip, not a verdict.
  if (context != nullptr && context->stopped()) return context->status();
  // Reconstruction: every previously undefined atom must come back true (and
  // nothing may flip); equivalently the closure equals M.
  return closed.values() == values;
}

/// True iff the total model `values` is a stable model of (program,
/// database) over `graph`; false for a model that is not total.
inline bool IsStable(const Program& program, const Database& database,
                     const GroundGraph& graph,
                     const std::vector<Truth>& values) {
  return reference::IsStableGoverned(program, database, graph, values, nullptr)
      .value();
}

}  // namespace reference
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_REFERENCE_STABLE_H_
