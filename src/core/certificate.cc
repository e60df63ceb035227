#include "core/certificate.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ground/close.h"

namespace tiebreak {

namespace {

std::string StepLabel(size_t index) {
  return "certificate step " + std::to_string(index);
}

// Rejects a step naming an atom outside [0, num_atoms) or naming one atom
// twice, within a side or across both: replaying it would read past the
// state or assign an atom twice.
Status CheckStepAtoms(const CertificateStep& step, int32_t num_atoms,
                      size_t index) {
  std::vector<AtomId> atoms = step.made_true;
  atoms.insert(atoms.end(), step.made_false.begin(), step.made_false.end());
  for (AtomId a : atoms) {
    if (a < 0 || a >= num_atoms) {
      return Status::InvalidArgument(StepLabel(index) + ": atom id " +
                                     std::to_string(a) + " is out of range");
    }
  }
  std::sort(atoms.begin(), atoms.end());
  const auto twice = std::adjacent_find(atoms.begin(), atoms.end());
  if (twice != atoms.end()) {
    return Status::InvalidArgument(StepLabel(index) + ": atom " +
                                   std::to_string(*twice) +
                                   " is listed twice");
  }
  return Status::Ok();
}

// Checks the paper's unfoundedness condition for `atoms` against the
// current state: every live rule supporting an atom of the set must consume
// some atom of the set positively.
Status CheckUnfoundedSet(const CloseState& state,
                         const std::vector<AtomId>& atoms, size_t index) {
  if (atoms.empty()) {
    return Status::InvalidArgument(StepLabel(index) +
                                   ": empty unfounded set");
  }
  std::set<AtomId> members(atoms.begin(), atoms.end());
  for (AtomId a : atoms) {
    if (!state.AtomLive(a)) {
      return Status::InvalidArgument(StepLabel(index) + ": atom " +
                                     std::to_string(a) + " is not live");
    }
    for (int32_t r : state.graph().Supporters(a)) {
      if (!state.RuleLive(r)) continue;
      bool consumes_member = false;
      for (AtomId b : state.graph().PositiveBody(r)) {
        if (members.contains(b)) {
          consumes_member = true;
          break;
        }
      }
      if (!consumes_member) {
        return Status::InvalidArgument(
            StepLabel(index) + ": rule " + std::to_string(r) +
            " supports atom " + std::to_string(a) +
            " from outside the set (the set is not unfounded)");
      }
    }
  }
  return Status::Ok();
}

// Checks that (made_true, made_false) is a valid orientation of some bottom
// tie of the current live graph.
Status CheckTieBreak(const CloseState& state,
                     const std::vector<AtomId>& made_true,
                     const std::vector<AtomId>& made_false, size_t index) {
  auto sorted = [](std::vector<AtomId> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const std::vector<AtomId> claimed_true = sorted(made_true);
  const std::vector<AtomId> claimed_false = sorted(made_false);

  for (const TieView& tie : FindBottomTies(state)) {
    const std::vector<AtomId> side0 = sorted(tie.side0);
    const std::vector<AtomId> side1 = sorted(tie.side1);
    if (side0.empty() || side1.empty()) {
      // Minimalist orientation is forced: everything false.
      const std::vector<AtomId>& all = side0.empty() ? side1 : side0;
      if (claimed_true.empty() && claimed_false == all) return Status::Ok();
      continue;
    }
    if ((claimed_true == side0 && claimed_false == side1) ||
        (claimed_true == side1 && claimed_false == side0)) {
      return Status::Ok();
    }
  }
  return Status::InvalidArgument(
      StepLabel(index) +
      ": assignment does not match any bottom tie of the live graph");
}

}  // namespace

Status VerifyCertificate(const Program& program, const Database& database,
                         const GroundGraph& graph, TieBreakingMode mode,
                         const Certificate& certificate,
                         const std::vector<Truth>& claimed_values) {
  if (static_cast<int32_t>(claimed_values.size()) != graph.num_atoms()) {
    return Status::InvalidArgument("claimed model has wrong size");
  }
  CloseState state(program, database, graph);
  for (size_t i = 0; i < certificate.steps.size(); ++i) {
    const CertificateStep& step = certificate.steps[i];
    Status atoms = CheckStepAtoms(step, graph.num_atoms(), i);
    if (!atoms.ok()) return atoms;
    switch (step.kind) {
      case CertificateStep::Kind::kUnfoundedSet: {
        if (mode == TieBreakingMode::kPure) {
          return Status::InvalidArgument(
              StepLabel(i) + ": pure runs cannot falsify unfounded sets");
        }
        if (!step.made_true.empty()) {
          return Status::InvalidArgument(
              StepLabel(i) + ": unfounded-set steps cannot assert atoms");
        }
        Status s = CheckUnfoundedSet(state, step.made_false, i);
        if (!s.ok()) return s;
        break;
      }
      case CertificateStep::Kind::kTieBreak: {
        if (mode == TieBreakingMode::kWellFounded &&
            !state.LargestUnfoundedSet().empty()) {
          return Status::InvalidArgument(
              StepLabel(i) +
              ": well-founded runs must falsify the unfounded set before "
              "breaking a tie");
        }
        Status s = CheckTieBreak(state, step.made_true, step.made_false, i);
        if (!s.ok()) return s;
        break;
      }
    }
    std::vector<std::pair<AtomId, bool>> assignments;
    for (AtomId a : step.made_true) assignments.emplace_back(a, true);
    for (AtomId a : step.made_false) assignments.emplace_back(a, false);
    state.SetAndClose(assignments);
  }
  if (state.values() != claimed_values) {
    return Status::InvalidArgument(
        "replaying the certificate does not reproduce the claimed model");
  }
  return Status::Ok();
}

}  // namespace tiebreak
