// Truth-table references for the SAT suites: the verdict, the model count
// and the model set of a CNF over at most 20 variables, by enumerating
// every assignment. Shared by sat_test and fuzz_test.
#ifndef TIEBREAK_TESTS_SAT_BRUTE_FORCE_H_
#define TIEBREAK_TESTS_SAT_BRUTE_FORCE_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sat/solver.h"
#include "util/logging.h"

namespace tiebreak {
namespace testing_util {

using Clauses = std::vector<std::vector<SatLit>>;

// The truth table's verdict; `model_count` (optional) receives the number
// of models.
inline bool BruteForceSat(int num_vars, const Clauses& clauses,
                          int64_t* model_count = nullptr) {
  TIEBREAK_CHECK_LE(num_vars, 20);
  int64_t count = 0;
  for (uint32_t mask = 0; mask < (1u << num_vars); ++mask) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool sat = false;
      for (SatLit lit : clause) {
        const bool value = (mask >> LitVar(lit)) & 1;
        if (value != LitIsNeg(lit)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) ++count;
  }
  if (model_count != nullptr) *model_count = count;
  return count > 0;
}

// Every model of `clauses` over `num_vars` variables, by truth table.
inline std::set<std::vector<bool>> BruteForceModels(int num_vars,
                                                    const Clauses& clauses) {
  TIEBREAK_CHECK_LE(num_vars, 20);
  std::set<std::vector<bool>> models;
  for (uint32_t mask = 0; mask < (1u << num_vars); ++mask) {
    std::vector<bool> model(num_vars);
    for (int v = 0; v < num_vars; ++v) model[v] = ((mask >> v) & 1) != 0;
    bool all = true;
    for (const auto& clause : clauses) {
      bool sat = false;
      for (const SatLit lit : clause) {
        if (model[LitVar(lit)] != LitIsNeg(lit)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) models.insert(std::move(model));
  }
  return models;
}

}  // namespace testing_util
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_SAT_BRUTE_FORCE_H_
