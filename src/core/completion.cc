#include "core/completion.h"

#include "core/stable.h"
#include "util/execution_context.h"

namespace tiebreak {

FixpointSearch::FixpointSearch(const Program& program,
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

std::optional<std::vector<Truth>> FixpointSearch::SolveOne() {
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

std::optional<std::vector<Truth>> FixpointSearch::Next() {
  if (cached_.has_value()) {
    std::optional<std::vector<Truth>> out = std::move(cached_);
    cached_.reset();
    return out;
  }
  return SolveOne();
}

bool FixpointSearch::HasFixpoint() {
  if (cached_.has_value()) return true;
  cached_ = SolveOne();
  return cached_.has_value();
}

int64_t FixpointSearch::Count(int64_t limit) {
  int64_t count = 0;
  while ((limit <= 0 || count < limit) && Next().has_value()) ++count;
  return count;
}

bool HasFixpoint(const Program& program, const Database& database,
                 const GroundGraph& graph) {
  FixpointSearch search(program, database, graph);
  return search.HasFixpoint();
}

bool HasStableModel(const Program& program, const Database& database,
                    const GroundGraph& graph, int64_t limit,
                    ExecutionContext* context) {
  FixpointSearch search(program, database, graph, context);
  int64_t inspected = 0;
  while (limit <= 0 || inspected < limit) {
    std::optional<std::vector<Truth>> model = search.Next();
    if (!model.has_value()) return false;
    ++inspected;
    Result<bool> stable =
        IsStableGoverned(program, database, graph, *model, context);
    if (!stable.ok()) return false;  // tripped: "none found before the trip"
    if (stable.value()) return true;
  }
  return false;
}

std::vector<std::vector<Truth>> EnumerateStableModels(
    const Program& program, const Database& database, const GroundGraph& graph,
    int64_t limit, ExecutionContext* context) {
  std::vector<std::vector<Truth>> stable_models;
  FixpointSearch search(program, database, graph, context);
  while (true) {
    std::optional<std::vector<Truth>> model = search.Next();
    if (!model.has_value()) break;
    Result<bool> stable =
        IsStableGoverned(program, database, graph, *model, context);
    if (!stable.ok()) break;  // tripped: the list is a sound prefix
    if (stable.value()) {
      stable_models.push_back(std::move(*model));
      if (limit > 0 &&
          static_cast<int64_t>(stable_models.size()) >= limit) {
        break;
      }
    }
  }
  return stable_models;
}

}  // namespace tiebreak
