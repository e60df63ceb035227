#include "core/completion.h"

#include "core/stable.h"
#include "ground/close.h"
#include "util/execution_context.h"

namespace tiebreak {

FixpointSearch::FixpointSearch(const Program& program,
                               const Database& database,
                               const GroundGraph& graph,
                               ExecutionContext* context)
    : context_(context) {
  solver_.SetExecutionContext(context_);
  // The Kripke–Kleene model: every fixpoint extends it.
  const CloseState close(program, database, graph, context_);
  if (context_ != nullptr && context_->stopped()) {
    // A tripped close is partial; its live atoms are not the residue.
    truncation_ = context_->status();
    exhausted_ = true;
    return;
  }
  kk_ = close.values();
  solver_.Reserve(close.num_live_atoms() + close.num_live_rules());
  std::vector<int32_t> atom_var(graph.num_atoms(), -1);  // -1 = decided
  live_atoms_.reserve(close.num_live_atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (kk_[a] != Truth::kUndef) continue;
    atom_var[a] = solver_.NewVar();
    live_atoms_.push_back(a);
  }
  std::vector<SatLit> body;     // reused across rules
  std::vector<SatLit> forward;  // reused across atoms
  for (const AtomId a : live_atoms_) {
    const SatLit head = PosLit(atom_var[a]);
    forward.clear();
    forward.push_back(Negate(head));
    for (const int32_t r : graph.Supporters(a)) {
      if (!close.RuleLive(r)) continue;
      // The live literals; the decided ones are true, or r would be dead.
      body.clear();
      for (const AtomId b : graph.PositiveBody(r)) {
        if (atom_var[b] >= 0) body.push_back(PosLit(atom_var[b]));
      }
      for (const AtomId b : graph.NegativeBody(r)) {
        if (atom_var[b] >= 0) body.push_back(NegLit(atom_var[b]));
      }
      SatLit lit;
      if (body.size() == 1) {
        lit = body[0];
      } else {
        // d <-> (l1 & ... & lk).
        lit = PosLit(solver_.NewVar());
        for (SatLit& l : body) {
          solver_.AddBinary(Negate(lit), l);  // d -> l
          l = Negate(l);
        }
        body.push_back(lit);  // (l1 & ... & lk) -> d
        solver_.AddLits(body.data(), body.size());
      }
      solver_.AddBinary(Negate(lit), head);  // body -> a
      forward.push_back(lit);
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
  // Decided atoms keep their Kripke–Kleene values; the model fills the
  // live ones.
  std::vector<Truth> values = kk_;
  for (int32_t v = 0; v < static_cast<int32_t>(live_atoms_.size()); ++v) {
    values[live_atoms_[v]] = solver_.ModelValue(v) ? Truth::kTrue
                                                   : Truth::kFalse;
  }
  // The auxiliary variables are functions of the atom variables, so
  // blocking the whole assignment blocks this fixpoint and no other; its
  // decisions name it in a clause of one literal per decision level.
  TIEBREAK_CHECK(solver_.BlockDecisions().ok());
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
