#include "core/tie_breaking.h"

#include <span>
#include <utility>
#include <vector>

#include "ground/ground_scc.h"
#include "util/execution_context.h"

namespace tiebreak {

std::vector<TieView> FindBottomTies(const CloseState& state) {
  // One Tarjan pass over the live subgraph records components and DFS-tree
  // sign parities; each bottom component then costs one verification sweep.
  const GroundGraph& graph = state.graph();
  const GroundLiveness live{state.values().data(), state.rule_dead().data()};
  std::vector<TieView> ties;
  const SccResult scc = ComputeGroundScc(graph, live);
  if (scc.num_components == 0) return ties;
  const Condensation cond = CondenseGroundScc(graph, scc, live);
  const int32_t num_atoms = graph.num_atoms();
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    if (cond.external_in_degree[comp] != 0) continue;  // not bottom
    if (!cond.has_internal_edge[comp]) continue;       // isolated node
    if (!CheckGroundTie(graph, scc, comp)) continue;
    // Lemma-1 sides: side 0 shares the parity of members.front().
    const std::span<const int32_t> members = scc.Members(comp);
    const char front_parity = scc.parity[members.front()];
    TieView tie;
    for (int32_t node : members) {
      if (node >= num_atoms) continue;  // rule node
      (scc.parity[node] == front_parity ? tie.side0 : tie.side1)
          .push_back(node);
    }
    ties.push_back(std::move(tie));
  }
  return ties;
}

namespace {

// Applies one tie break: K's atoms true, L's atoms false, then close.
void BreakTie(const TieView& tie, ChoicePolicy* policy, CloseState* state,
              Certificate* certificate) {
  const std::vector<AtomId>* k_side;  // true side
  const std::vector<AtomId>* l_side;  // false side
  if (tie.side0.empty() || tie.side1.empty()) {
    // An SCC with no internal negative edges: minimalist choice, everything
    // false (K is the empty side).
    k_side = tie.side0.empty() ? &tie.side0 : &tie.side1;
    l_side = tie.side0.empty() ? &tie.side1 : &tie.side0;
  } else if (policy->Side0True(tie)) {
    k_side = &tie.side0;
    l_side = &tie.side1;
  } else {
    k_side = &tie.side1;
    l_side = &tie.side0;
  }
  std::vector<std::pair<AtomId, bool>> assignments;
  assignments.reserve(k_side->size() + l_side->size());
  for (AtomId a : *k_side) assignments.emplace_back(a, true);
  for (AtomId a : *l_side) assignments.emplace_back(a, false);
  if (certificate != nullptr) {
    CertificateStep step;
    step.kind = CertificateStep::Kind::kTieBreak;
    step.made_true = *k_side;
    step.made_false = *l_side;
    certificate->steps.push_back(std::move(step));
  }
  state->SetAndClose(assignments);
}

// The Section 3 interpreter loop. The stopped() guards matter for
// truncation soundness: after a trip the unfounded-set simulation returns
// {} over a possibly half-propagated state, and breaking a "tie" of that
// state could assign atoms the full run decides differently — so a tripped
// run stops choosing and reports the partially-propagated prefix.
InterpreterResult RunTieBreaking(CloseState& state, TieBreakingMode mode,
                                 ChoicePolicy* policy,
                                 Certificate* certificate,
                                 ExecutionContext* context) {
  InterpreterResult result;

  auto falsify_unfounded = [&state, &result, certificate, context]() {
    if (context != nullptr && context->stopped()) return false;
    const std::vector<AtomId> unfounded = state.LargestUnfoundedSet();
    if (unfounded.empty()) return false;
    ++result.unfounded_rounds;
    std::vector<std::pair<AtomId, bool>> assignments;
    assignments.reserve(unfounded.size());
    for (AtomId a : unfounded) assignments.emplace_back(a, false);
    if (certificate != nullptr) {
      CertificateStep step;
      step.kind = CertificateStep::Kind::kUnfoundedSet;
      step.made_false = unfounded;
      certificate->steps.push_back(std::move(step));
    }
    state.SetAndClose(assignments);
    return true;
  };
  auto break_a_tie = [&state, &result, policy, certificate, context]() {
    if (context != nullptr && context->stopped()) return false;
    const std::vector<TieView> ties = FindBottomTies(state);
    if (ties.empty()) return false;
    const size_t pick = policy->ChooseTie(ties.size());
    TIEBREAK_CHECK_LT(pick, ties.size());
    BreakTie(ties[pick], policy, &state, certificate);
    ++result.ties_broken;
    return true;
  };

  while (true) {
    ++result.iterations;
    if (context != nullptr &&
        !context->Checkpoint("tie_breaking", 1).ok()) {
      break;
    }
    // A total state has no live rule left: no unfounded set, no tie.
    if (state.IsTotal()) break;
    switch (mode) {
      case TieBreakingMode::kPure:
        if (break_a_tie()) continue;
        break;
      case TieBreakingMode::kWellFounded:
        if (falsify_unfounded()) continue;
        if (break_a_tie()) continue;
        break;
      case TieBreakingMode::kTieFirst:
        if (break_a_tie()) continue;
        if (falsify_unfounded()) continue;
        break;
    }
    break;
  }
  result.values = state.values();
  if (context != nullptr && context->stopped()) {
    result.truncation = context->status();
    result.total = false;
  } else {
    result.total = state.IsTotal();
  }
  return result;
}

}  // namespace

InterpreterResult TieBreaking(const Program& program, const Database& database,
                              const GroundGraph& graph, TieBreakingMode mode,
                              ChoicePolicy* policy,
                              Certificate* certificate) {
  return TieBreaking(program, database, graph, mode, InterpreterOptions{},
                     policy, certificate);
}

InterpreterResult TieBreaking(const Program& program, const Database& database,
                              const GroundGraph& graph, TieBreakingMode mode,
                              const InterpreterOptions& options,
                              ChoicePolicy* policy, Certificate* certificate) {
  FirstChoicePolicy default_policy;
  if (policy == nullptr) policy = &default_policy;
  CloseState state(program, database, graph, options.context);
  return RunTieBreaking(state, mode, policy, certificate, options.context);
}

Result<InterpreterResult> TieBreaking(const Program& program,
                                      const Database& database,
                                      TieBreakingMode mode,
                                      ChoicePolicy* policy) {
  Result<GroundingResult> ground = Ground(program, database);
  if (!ground.ok()) return ground.status();
  return TieBreaking(program, database, ground->graph, mode, policy);
}

}  // namespace tiebreak
