#include "checks.h"

namespace perfbench {

using tiebreak::GameValue;
using tiebreak::Truth;

namespace {

std::string Mismatch(const char* what, int32_t v) {
  return std::string(what) + " at position n" + std::to_string(v);
}

}  // namespace

std::string PositionTruth(const tiebreak::QueryResult& answers,
                          const std::vector<int32_t>& position_of_const,
                          int32_t positions, std::vector<Truth>* truth) {
  truth->assign(positions, Truth::kFalse);
  std::vector<char> seen(positions, 0);
  const auto mark = [&](const std::vector<tiebreak::Tuple>& bindings,
                        Truth value) -> std::string {
    for (const tiebreak::Tuple& binding : bindings) {
      const bool known =
          binding.size() == 1 && binding[0] >= 0 &&
          binding[0] < static_cast<int32_t>(position_of_const.size()) &&
          position_of_const[binding[0]] >= 0;
      if (!known) return "a binding names no position";
      const int32_t v = position_of_const[binding[0]];
      if (seen[v]) return Mismatch("binding listed twice", v);
      seen[v] = 1;
      (*truth)[v] = value;
    }
    return "";
  };
  std::string error = mark(answers.true_bindings, Truth::kTrue);
  if (error.empty()) error = mark(answers.undefined_bindings, Truth::kUndef);
  return error;
}

std::string CheckWellFounded(const std::vector<Truth>& truth,
                             const std::vector<GameValue>& game) {
  if (truth.size() != game.size()) return "position count differs";
  for (size_t v = 0; v < truth.size(); ++v) {
    const Truth expected = game[v] == GameValue::kWon    ? Truth::kTrue
                           : game[v] == GameValue::kLost ? Truth::kFalse
                                                         : Truth::kUndef;
    if (truth[v] != expected) {
      return Mismatch("well-founded value differs from the game value",
                      static_cast<int32_t>(v));
    }
  }
  return "";
}

std::string CheckTotalFixpoint(const Board& board,
                               const std::vector<Truth>& truth) {
  if (static_cast<int32_t>(truth.size()) != board.size()) {
    return "position count differs";
  }
  for (int32_t v = 0; v < board.size(); ++v) {
    if (truth[v] == Truth::kUndef) return Mismatch("model not total", v);
    bool escape = false;
    for (int32_t w : board.moves[v]) escape |= truth[w] == Truth::kFalse;
    if ((truth[v] == Truth::kTrue) != escape) {
      return Mismatch("model is not a fixpoint", v);
    }
  }
  return "";
}

std::string CheckAgrees(const std::vector<Truth>& model,
                        const std::vector<Truth>& reference) {
  if (model.size() != reference.size()) return "position count differs";
  for (size_t v = 0; v < model.size(); ++v) {
    if (reference[v] != Truth::kUndef && model[v] != reference[v]) {
      return Mismatch("model overrides a well-founded value",
                      static_cast<int32_t>(v));
    }
  }
  return "";
}

}  // namespace perfbench
