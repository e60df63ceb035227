#include "core/stable.h"

#include "core/fixpoint_internal.h"
#include "ground/close.h"
#include "util/execution_context.h"

namespace tiebreak {

bool IsStable(const Program& program, const Database& database,
              const GroundGraph& graph, const std::vector<Truth>& values) {
  // Ungoverned, the check cannot trip: the Result always holds a verdict.
  return IsStableGoverned(program, database, graph, values, nullptr).value();
}

Result<bool> IsStableGoverned(const Program& program, const Database& database,
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
  // fixpoint M on the atoms it defines). The fixpoint check and M⁻ share
  // one Δ mask.
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  if (!internal::IsFixpointOverDelta(program, in_delta, graph, values)) {
    return false;
  }
  // Build M⁻: true IDB atoms outside Δ become undefined; everything else
  // keeps its value.
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

}  // namespace tiebreak
