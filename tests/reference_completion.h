// The completion encoder as it stood before the Kripke–Kleene residue: one
// SAT variable per atom of the ground graph, one auxiliary "body" variable
// per rule instance, and blocking clauses over every atom. It is kept
// verbatim (functions made inline, wrapped in namespace `reference`) as the
// test-only reference that completion_differential_test compares the
// production FixpointSearch against. Not for use outside tests/.
#ifndef TIEBREAK_TESTS_REFERENCE_COMPLETION_H_
#define TIEBREAK_TESTS_REFERENCE_COMPLETION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"
#include "sat/solver.h"
#include "util/execution_context.h"
#include "util/status.h"

namespace tiebreak {
namespace reference {

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

inline FixpointSearch::FixpointSearch(const Program& program,
                                      const Database& database,
                                      const GroundGraph& graph,
                                      ExecutionContext* context)
    : graph_(&graph), context_(context) {
  solver_.SetExecutionContext(context_);
  TIEBREAK_CHECK(graph.finalized());
  solver_.Reserve(graph.num_atoms() + graph.num_rules());
  atom_var_.resize(graph.num_atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    atom_var_[a] = solver_.NewVar();
  }
  // One auxiliary "body" variable per rule instance:
  //   d_r <-> conjunction of body literals.
  // All variables are numbered up front (atoms, then d_r = num_atoms + r),
  // which matches the historical interleaved numbering exactly — clause
  // additions never created variables.
  std::vector<int32_t> body_var(graph.num_rules());
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    body_var[r] = solver_.NewVar();
  }
  std::vector<SatLit> back;  // reused across rules — no per-rule allocation
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t d = body_var[r];
    back.clear();
    back.push_back(PosLit(d));  // (l1 & ... & lk) -> d
    for (AtomId a : graph.PositiveBody(r)) {
      solver_.AddBinary(NegLit(d), PosLit(atom_var_[a]));  // d -> a
      back.push_back(NegLit(atom_var_[a]));
    }
    for (AtomId a : graph.NegativeBody(r)) {
      solver_.AddBinary(NegLit(d), NegLit(atom_var_[a]));  // d -> !a
      back.push_back(PosLit(atom_var_[a]));
    }
    solver_.AddLits(back.data(), back.size());
  }
  // Per-atom completion.
  const std::vector<char> delta_mask = DeltaAtomMask(database, graph.atoms());
  std::vector<SatLit> forward;  // reused across atoms
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    const PredId pred = graph.atoms().PredicateOf(a);
    const bool in_delta = delta_mask[a] != 0;
    if (in_delta) {
      solver_.AddUnit(PosLit(atom_var_[a]));  // Δ atoms are true, supported
      continue;
    }
    if (program.IsEdb(pred)) {
      // EDB atoms exist as nodes only in faithful graphs; not in Δ => false.
      solver_.AddUnit(NegLit(atom_var_[a]));
      continue;
    }
    // a <-> ⋁ d_r over supporters.
    forward.clear();
    forward.push_back(NegLit(atom_var_[a]));
    for (int32_t r : graph.Supporters(a)) {
      solver_.AddBinary(NegLit(body_var[r]), PosLit(atom_var_[a]));  // d -> a
      forward.push_back(PosLit(body_var[r]));
    }
    solver_.AddLits(forward.data(), forward.size());  // a -> some body
  }
}

inline std::optional<std::vector<Truth>> FixpointSearch::SolveOne() {
  if (exhausted_) return std::nullopt;
  const SatResult result = solver_.Solve();
  if (result == SatResult::kUnknown) {
    // Only a governing context can interrupt the search (no conflict
    // budget is ever set on this solver): record the trip and stop
    // enumerating. The solver backtracked to level 0, so the object stays
    // valid.
    TIEBREAK_CHECK(context_ != nullptr && context_->stopped());
    truncation_ = context_->status();
    exhausted_ = true;
    return std::nullopt;
  }
  if (result == SatResult::kUnsat) {
    exhausted_ = true;
    return std::nullopt;
  }
  std::vector<Truth> values(graph_->num_atoms(), Truth::kUndef);
  for (AtomId a = 0; a < graph_->num_atoms(); ++a) {
    values[a] = solver_.ModelValue(atom_var_[a]) ? Truth::kTrue : Truth::kFalse;
  }
  // kSat is in hand, and atom_var_ entries are all live solver variables,
  // so blocking cannot fail.
  TIEBREAK_CHECK(solver_.BlockModel(atom_var_).ok());
  return values;
}

inline std::optional<std::vector<Truth>> FixpointSearch::Next() {
  if (cached_.has_value()) {
    std::optional<std::vector<Truth>> out = std::move(cached_);
    cached_.reset();
    return out;
  }
  return SolveOne();
}

inline bool FixpointSearch::HasFixpoint() {
  if (cached_.has_value()) return true;
  cached_ = SolveOne();
  return cached_.has_value();
}

inline int64_t FixpointSearch::Count(int64_t limit) {
  int64_t count = 0;
  while ((limit <= 0 || count < limit) && Next().has_value()) ++count;
  return count;
}

/// One-shot convenience: does (program, database, graph) admit a fixpoint?
inline bool HasFixpoint(const Program& program, const Database& database,
                        const GroundGraph& graph) {
  FixpointSearch search(program, database, graph);
  return search.HasFixpoint();
}

}  // namespace reference
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_REFERENCE_COMPLETION_H_
