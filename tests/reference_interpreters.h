// Two second computations of the paper's models, kept verbatim from the
// library's former core/alternating.{h,cc} and core/perfect_model.{h,cc}
// (functions made inline, wrapped in namespace `reference`, file-local
// helpers in `reference::internal`) as test-only references. Neither
// shares CloseState with the production interpreters, and neither reads
// engine code. Not for use outside tests/.
//
// Van Gelder's alternating fixpoint computes the well-founded model
// independently of the unfounded-set interpreter of core/well_founded.h.
// T_J is the immediate-consequence least fixpoint where negated literals
// are evaluated against a fixed set J (¬b holds iff b ∉ J). The sequence
//   A_0 = ∅,  B_k = T(A_k),  A_{k+1} = T(B_k)
// has A ascending (underestimates of true) and B descending
// (overestimates); at the limit: true = A_∞, false = complement of B_∞,
// undefined = B_∞ \ A_∞.
//
// Local stratification and the perfect model [Pr], Section 3: a program/
// database pair is locally stratified when no SCC of the ground graph
// contains a negative edge; the perfect model evaluates the ground SCCs
// bottom-up, minimizing lower levels first. On such an instance the
// well-founded model is total and equals the perfect model (Van Gelder,
// Ross & Schlipf 1991), and both tie-breaking interpreters compute it too
// (an SCC with no negative edges is a tie with one empty side).
#ifndef TIEBREAK_TESTS_REFERENCE_INTERPRETERS_H_
#define TIEBREAK_TESTS_REFERENCE_INTERPRETERS_H_

#include <optional>
#include <utility>
#include <vector>

#include "core/fixpoint.h"
#include "core/interpreter_result.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "graph/tie.h"
#include "ground/ground_graph.h"
#include "ground/ground_scc.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/execution_context.h"
#include "util/status.h"

namespace tiebreak {
namespace reference {
namespace internal {

// Least fixpoint of the positive immediate-consequence operator with
// negative literals read against `anti` (¬b holds iff !anti[b]).
// `base` marks the atoms true outright (Δ atoms; EDB atoms per Δ). Each
// sweep is one contiguous scan of the CSR rule arenas, and with a non-null
// `exec` each sweep is a resource checkpoint — a trip returns the partial
// set, which the caller discards (it is below the fixpoint).
inline std::vector<char> LeastModelAgainst(const GroundGraph& graph,
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

// Full (not live) ground graph as a SignedDigraph: atoms get node ids
// [0, num_atoms), rule nodes follow. Only the odd-cycle search still needs
// the materialized digraph; the SCC passes run CSR-direct.
inline SignedDigraph FullGraph(const GroundGraph& graph) {
  SignedDigraph g(graph.num_atoms() + graph.num_rules());
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_node = graph.num_atoms() + r;
    for (AtomId a : graph.PositiveBody(r)) g.AddEdge(a, rule_node, false);
    for (AtomId a : graph.NegativeBody(r)) g.AddEdge(a, rule_node, true);
    g.AddEdge(rule_node, graph.HeadOf(r), false);
  }
  g.Finalize();
  return g;
}

// Negative edges are exactly (body atom -> rule node) arcs from negated
// literals; an instance is locally stratified iff none stays inside one
// component.
inline bool HasNegativeIntraSccEdge(const GroundGraph& graph,
                                    const SccResult& scc) {
  const int32_t num_atoms = graph.num_atoms();
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_comp = scc.component[num_atoms + r];
    for (AtomId a : graph.NegativeBody(r)) {
      if (scc.component[a] == rule_comp) return true;
    }
  }
  return false;
}

}  // namespace internal

/// Computes the well-founded model by alternating fixpoints. Semantically
/// identical to WellFounded(); asymptotically slower (naive inner fixpoints)
/// but completely independent code.
///
/// With a non-null `context`, inner fixpoint sweeps checkpoint; on a trip
/// the run stops at the last *completed* alternation boundary and returns a
/// sound partial result (truncation set): A_k only contains atoms true in
/// the well-founded model and the complement of B_k only atoms false in it,
/// at every k — everything else is left kUndef.
inline InterpreterResult AlternatingFixpointWellFounded(
    const Program& program, const Database& database, const GroundGraph& graph,
    ExecutionContext* context = nullptr) {
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
        internal::LeastModelAgainst(graph, base, under, context);
    if (context != nullptr && context->stopped()) break;
    over = std::move(next_over);
    std::vector<char> next_under =
        internal::LeastModelAgainst(graph, base, over, context);
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

/// True iff no SCC of the ground graph contains a negative edge. (On
/// reduced graphs this judges the *relevant* instantiations — EDB-dead rule
/// nodes cannot resurrect a negative cycle semantically.)
inline bool IsLocallyStratified(const Program& program,
                                const Database& database,
                                const GroundGraph& graph) {
  (void)program;
  (void)database;
  return !internal::HasNegativeIntraSccEdge(graph, ComputeGroundScc(graph));
}

/// Instance-level Theorem 1: true iff the ground graph has no cycle with an
/// odd number of negative edges. When it holds, every bottom component the
/// interpreters ever see is a tie, so the tie-breaking interpreters produce
/// a total model for *this* instance under every choice — even when the
/// program itself is not call-consistent (e.g. win-move on a board whose
/// draw cycles are all even).
inline bool IsGroundCallConsistent(const GroundGraph& graph) {
  return !HasOddCycle(internal::FullGraph(graph));
}

/// Resource-governed perfect model. Fails with FAILED_PRECONDITION when the
/// instance is not locally stratified. With a non-null tripping `context`,
/// returns OK with InterpreterResult::truncation set and a sound partial
/// model: components processed before the trip are final, atoms of
/// unfinished components keep kTrue only when already derived (within-
/// component fixpoints are monotone over final dependencies) and are
/// otherwise kUndef.
inline Result<InterpreterResult> PerfectModelGoverned(
    const Program& program, const Database& database, const GroundGraph& graph,
    ExecutionContext* context) {
  // Condense the full ground graph CSR-direct.
  const SccResult scc = ComputeGroundScc(graph);
  if (internal::HasNegativeIntraSccEdge(graph, scc)) {
    return Status::FailedPrecondition(
        "instance is not locally stratified: a ground SCC contains a "
        "negative edge");
  }

  // Base: everything false except Δ (EDB atoms exist as nodes only in
  // faithful graphs; those not in Δ are already false).
  std::vector<Truth> values(graph.num_atoms(), Truth::kFalse);
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (in_delta[a]) values[a] = Truth::kTrue;
  }
  (void)program;

  InterpreterResult result;

  // Group rule instances by the component of their head. Tarjan ids are
  // reverse-topological (edge u -> v implies comp(v) < comp(u)), and body
  // atoms point *toward* heads, so dependencies have larger component ids:
  // processing components in descending order sees dependencies first.
  std::vector<std::vector<int32_t>> rules_by_comp(scc.num_components);
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    rules_by_comp[scc.component[graph.HeadOf(r)]].push_back(r);
  }

  bool tripped = false;
  int32_t trip_comp = -1;
  for (int32_t comp = scc.num_components - 1; comp >= 0 && !tripped; --comp) {
    const std::vector<int32_t>& rules = rules_by_comp[comp];
    if (rules.empty()) continue;
    // Least fixpoint within the component: negated atoms are in strictly
    // earlier-processed components (local stratification), positive
    // same-component atoms converge by iteration.
    bool changed = true;
    while (changed) {
      ++result.iterations;
      // One checkpoint per sweep; a trip abandons the run at this
      // component.
      if (context != nullptr &&
          !context
               ->Checkpoint("perfect_model", static_cast<int64_t>(rules.size()))
               .ok()) {
        tripped = true;
        trip_comp = comp;
        break;
      }
      changed = false;
      for (int32_t r : rules) {
        const AtomId head = graph.HeadOf(r);
        if (values[head] == Truth::kTrue) continue;
        if (BodyTrue(graph, r, values)) {
          values[head] = Truth::kTrue;
          changed = true;
        }
      }
    }
  }
  if (tripped) {
    // Unfinished components (ids <= trip_comp): kTrue atoms are sound —
    // every derivation was justified by final dependencies — but kFalse
    // is merely "not derived yet", so those atoms become kUndef (Δ atoms
    // are kTrue and unaffected).
    for (AtomId a = 0; a < graph.num_atoms(); ++a) {
      if (scc.component[a] <= trip_comp && values[a] == Truth::kFalse) {
        values[a] = Truth::kUndef;
      }
    }
    result.truncation = context->status();
  }
  result.values = std::move(values);
  result.total = result.CountUndefined() == 0 && !tripped;
  return result;
}

/// The perfect model of a locally stratified instance: per-SCC bottom-up
/// least fixpoints in topological order. nullopt when the instance is not
/// locally stratified.
inline std::optional<std::vector<Truth>> PerfectModel(
    const Program& program, const Database& database,
    const GroundGraph& graph) {
  Result<InterpreterResult> result =
      PerfectModelGoverned(program, database, graph, /*context=*/nullptr);
  if (!result.ok()) return std::nullopt;  // not locally stratified
  return std::move(result.value().values);
}

}  // namespace reference
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_REFERENCE_INTERPRETERS_H_
