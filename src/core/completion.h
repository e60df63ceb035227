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
  /// Builds the completion encoding. Works on reduced or faithful graphs.
  /// A non-null `context` governs every solver call: on a trip the search
  /// stops (Next/HasFixpoint report exhaustion, Count stops counting) and
  /// truncation() carries the trip Status — callers must consult it before
  /// reading "no more fixpoints" as a semantic answer.
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

  /// OK unless the governing context tripped mid-search; then the trip
  /// Status, and the enumeration so far is a (sound but possibly
  /// incomplete) prefix of the fixpoint space.
  const Status& truncation() const { return truncation_; }

  /// Read-only view of the backing solver, for observability: the bench
  /// harnesses surface its conflict/propagation/restart/learnt counters.
  const SatSolver& solver() const { return solver_; }

 private:
  /// Solves for one more model and immediately blocks it; nullopt when the
  /// space is exhausted.
  std::optional<std::vector<Truth>> SolveOne();

  const GroundGraph* graph_;
  SatSolver solver_;
  ExecutionContext* context_ = nullptr;  // not owned; null = ungoverned
  std::vector<int32_t> atom_var_;        // AtomId -> SAT var
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
