#include "core/alternating.h"

#include <utility>
#include <vector>

#include "util/execution_context.h"

namespace tiebreak {

namespace {

// Least fixpoint of the positive immediate-consequence operator with
// negative literals read against `anti` (¬b holds iff !anti[b]).
// `base` marks the atoms true outright (Δ atoms; EDB atoms per Δ). Each
// sweep is one contiguous scan of the CSR rule arenas, and with a non-null
// `exec` each sweep is a resource checkpoint — a trip returns the partial
// set, which the caller discards (it is below the fixpoint).
std::vector<char> LeastModelAgainst(const GroundGraph& graph,
                                    const std::vector<char>& base,
                                    const std::vector<char>& anti,
                                    ExecutionContext* exec) {
  std::vector<char> in(base);
  const int32_t num_rules = graph.num_rules();
  bool changed = true;
  while (changed) {
    if (exec != nullptr &&
        !exec->Checkpoint("alternating", num_rules).ok()) {
      return in;
    }
    changed = false;
    for (int32_t r = 0; r < num_rules; ++r) {
      if (in[graph.HeadOf(r)]) continue;
      bool body = true;
      for (AtomId a : graph.PositiveBody(r)) {
        if (!in[a]) {
          body = false;
          break;
        }
      }
      if (body) {
        for (AtomId a : graph.NegativeBody(r)) {
          if (anti[a]) {
            body = false;
            break;
          }
        }
      }
      if (body) {
        in[graph.HeadOf(r)] = 1;
        changed = true;
      }
    }
  }
  return in;
}

}  // namespace

InterpreterResult AlternatingFixpointWellFounded(const Program& program,
                                                 const Database& database,
                                                 const GroundGraph& graph,
                                                 ExecutionContext* context) {
  // `program` is part of the interpreter signature for symmetry; the
  // alternating fixpoint needs only Δ (EDB atoms without rules can never be
  // derived, so the base covers them).
  (void)program;
  const int32_t n = graph.num_atoms();
  // Base facts: Δ atoms are unconditionally true. EDB atoms not in Δ can
  // never be derived (no rules), so the base covers all their truth. Built
  // with one bulk Δ scan instead of a Database::Contains per atom.
  std::vector<char> base = DeltaAtomMask(database, graph.atoms());

  InterpreterResult result;
  std::vector<char> under(base);  // A_0: only certain facts
  // B_{-1}: the trivially sound overestimate (no atom declared false), in
  // case a trip lands before the first B_k completes.
  std::vector<char> over(n, 1);
  while (true) {
    ++result.iterations;
    if (context != nullptr &&
        !context->Checkpoint("alternating", 1).ok()) {
      break;
    }
    // A trip mid-inner-fixpoint leaves that set below its fixpoint —
    // discard it and report the last completed alternation boundary, where
    // A_k underestimates the true atoms and B_k overestimates them at
    // every k (the ascending/descending invariant).
    std::vector<char> next_over =
        LeastModelAgainst(graph, base, under, context);
    if (context != nullptr && context->stopped()) break;
    over = std::move(next_over);
    std::vector<char> next_under =
        LeastModelAgainst(graph, base, over, context);
    if (context != nullptr && context->stopped()) break;
    if (next_under == under) break;
    under = std::move(next_under);
  }

  result.values.assign(n, Truth::kUndef);
  for (AtomId a = 0; a < n; ++a) {
    if (under[a]) {
      result.values[a] = Truth::kTrue;
    } else if (!over[a]) {
      result.values[a] = Truth::kFalse;
    }
  }
  if (context != nullptr && context->stopped()) {
    result.truncation = context->status();
    result.total = false;
  } else {
    result.total = result.CountUndefined() == 0;
  }
  return result;
}

}  // namespace tiebreak
