// Answer checks against references the benchmark owns or that sit outside
// the pipeline under test: retrograde analysis (SolveGame) for well-founded
// answers, and an O(V + E) fixpoint test over the benchmark's own move
// lists for total models. Every check runs outside the timed regions and
// returns "" on success or a description of the first mismatch.
#ifndef TIEBREAK_PERFBENCH_CHECKS_H_
#define TIEBREAK_PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "core/query.h"
#include "ground/truth.h"
#include "inputs.h"
#include "workload/game_solver.h"

namespace perfbench {

/// Fills `truth` with win(n<v>) per position v as a win(X) query reported
/// it: true and undefined bindings as listed, every other position false.
/// `position_of_const` maps a ConstId to its position (-1 for others).
/// Fails on a binding that names no position or names one twice.
std::string PositionTruth(const tiebreak::QueryResult& answers,
                          const std::vector<int32_t>& position_of_const,
                          int32_t positions,
                          std::vector<tiebreak::Truth>* truth);

/// Well-founded answers against the game values: won positions true, lost
/// false, drawn undefined.
std::string CheckWellFounded(const std::vector<tiebreak::Truth>& truth,
                             const std::vector<tiebreak::GameValue>& game);

/// A total model that is a fixpoint of win/move on `board`:
/// win(x) <=> some move(x, y) has not win(y).
std::string CheckTotalFixpoint(const Board& board,
                               const std::vector<tiebreak::Truth>& truth);

/// `model` agrees with `reference` on every position `reference` decides.
std::string CheckAgrees(const std::vector<tiebreak::Truth>& model,
                        const std::vector<tiebreak::Truth>& reference);

}  // namespace perfbench

#endif  // TIEBREAK_PERFBENCH_CHECKS_H_
