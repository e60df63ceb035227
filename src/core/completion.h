// Clark completion of a ground instance, encoded into CNF: fixpoints of Π on
// Δ are exactly the models of
//
//     a  <->  (a ∈ Δ)  ∨  ⋁ { body(r) : rule instance r with head a }
//
// over the ground graph's atoms ([KP]'s "models of the Clark extension").
// FixpointSearch wraps the encoding behind a searcher: existence queries,
// model enumeration (with blocking clauses) and counting. This is the
// workhorse behind the paper's negative results — Theorems 2/3/6 all claim
// "no fixpoint whatsoever", which we verify as UNSAT answers.
//
// Only the Kripke–Kleene residue is encoded. The searcher first runs
// CloseState's initial close, close(M0(Δ), G): Fitting's three-valued
// operator iterated to its least fixpoint in the knowledge ordering, which
// is the Kripke–Kleene model. Every fixpoint is a two-valued fixpoint of
// that operator (a supported model: an atom is true iff Δ lists it or some
// rule body is true), so it extends the Kripke–Kleene model — an induction
// over the close's steps: each step is forced in every supported model
// extending the values before it. The close therefore decides atoms for
// every fixpoint at once, and the SAT instance holds only what it leaves
// live:
//
//   - one variable per live (undefined) atom;
//   - per live rule instance whose head is live, its body restricted to
//     live atoms (its decided literals are all true, or the close would
//     have killed the rule): a one-literal body is that literal, a longer
//     one gets an auxiliary variable d <-> (l1 ∧ ... ∧ lk);
//   - per live atom a: a <-> ⋁ of those bodies over its live supporters
//     (dead supporters have a false literal in every fixpoint);
//   - per fixpoint found, one blocking clause: the negation of the
//     solver's decision literals for it (SatSolver::BlockDecisions). Unit
//     propagation from those decisions rebuilt the whole assignment, and
//     each auxiliary variable is a function of the atom variables, so the
//     clause excludes that fixpoint and no other, in one literal per
//     decision level rather than one per live atom.
//
// Next() fills the decided atoms with their Kripke–Kleene values. When the
// Kripke–Kleene model is total the instance has no variable, the first
// model is reached without a decision, and its blocking clause is empty:
// exactly one fixpoint.
#ifndef TIEBREAK_CORE_COMPLETION_H_
#define TIEBREAK_CORE_COMPLETION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"
#include "sat/solver.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// SAT-backed search over the fixpoints of one ground instance.
class FixpointSearch {
 public:
  /// Closes M0(Δ) and encodes the completion of the residue. Works on
  /// reduced or faithful graphs. A non-null `context` governs the close and
  /// every solver call: on a trip the search stops (Next/HasFixpoint report
  /// exhaustion, Count stops counting) and truncation() carries the trip
  /// Status — callers must consult it before reading "no more fixpoints" as
  /// a semantic answer. A trip inside the close leaves nothing encoded.
  FixpointSearch(const Program& program, const Database& database,
                 const GroundGraph& graph,
                 ExecutionContext* context = nullptr);

  /// Returns the next fixpoint (total model, Truth per AtomId) or nullopt
  /// when all fixpoints have been enumerated. Each call adds a blocking
  /// clause, so successive calls yield distinct models.
  std::optional<std::vector<Truth>> Next();

  /// True iff at least one (more) fixpoint exists. Does not consume it: the
  /// following Next() returns the witnessing model.
  bool HasFixpoint();

  /// Counts fixpoints up to `limit` (enumeration with blocking clauses);
  /// `limit <= 0` counts them all.
  int64_t Count(int64_t limit);

  /// OK unless the governing context tripped in the close or mid-search;
  /// then the trip Status, and the enumeration so far is a (sound but
  /// possibly incomplete) prefix of the fixpoint space.
  const Status& truncation() const { return truncation_; }

  /// Read-only view of the backing solver, for observability: the bench
  /// harnesses surface its conflict/propagation/restart/learnt counters.
  const SatSolver& solver() const { return solver_; }

 private:
  /// Solves for one more model and immediately blocks it; nullopt when the
  /// space is exhausted.
  std::optional<std::vector<Truth>> SolveOne();

  SatSolver solver_;
  ExecutionContext* context_ = nullptr;  // not owned; null = ungoverned
  // The Kripke–Kleene model per AtomId; kUndef marks the live atoms.
  std::vector<Truth> kk_;
  // Live atoms in id order; SAT variable v is live_atoms_[v].
  std::vector<AtomId> live_atoms_;
  bool exhausted_ = false;
  Status truncation_ = Status::Ok();
  std::optional<std::vector<Truth>> cached_;  // found but not yet returned
};

/// One-shot convenience: does (program, database, graph) admit a fixpoint?
bool HasFixpoint(const Program& program, const Database& database,
                 const GroundGraph& graph);

/// One-shot convenience: is there a *stable* model? Enumerates fixpoints and
/// filters through the stability check; `limit` caps the number of fixpoint
/// candidates inspected (`limit <= 0` = no cap). With a non-null tripped
/// `context` the answer `false` means "none found before the trip" — check
/// the context's status before reading it semantically.
bool HasStableModel(const Program& program, const Database& database,
                    const GroundGraph& graph, int64_t limit = 0,
                    ExecutionContext* context = nullptr);

/// Enumerates up to `limit` stable models (`limit <= 0` = all). With a
/// non-null tripped `context` the list is a sound prefix — every returned
/// model is stable, but later ones may be missing; check the context's
/// status.
std::vector<std::vector<Truth>> EnumerateStableModels(
    const Program& program, const Database& database, const GroundGraph& graph,
    int64_t limit = 0, ExecutionContext* context = nullptr);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_COMPLETION_H_
