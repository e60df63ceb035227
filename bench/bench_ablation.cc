// EXP-ABL — ablations of the semantic design choices:
//
//  (a) ordering: the paper's WFTB falsifies unfounded sets BEFORE breaking
//      ties. The kTieFirst ablation flips the order: success rates match,
//      but the stability guarantee (Lemma 3) is lost — measured here as the
//      fraction of total models that are stable.
//  (b) choice policy: deterministic-first vs seeded-random tie selection —
//      success rates are choice-invariant on call-consistent inputs
//      (Theorem 1) and noisy beyond them.
//
// Takes no flags.
#include <cstdio>
#include <string>
#include <utility>

#include "core/stable.h"
#include "core/stratification.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "ground/grounder.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

using namespace tiebreak;

namespace {

struct ModeTally {
  int64_t runs = 0, totals = 0, stable = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown flag %s\n", argv[1]);
    return 1;
  }

  std::printf("EXP-ABL(a): unfounded-first (paper) vs tie-first ordering\n\n");
  {
    ModeTally wftb, tie_first;
    Rng rng(0xAB1);
    for (int round = 0; round < 250; ++round) {
      RandomProgramOptions options;
      options.num_idb = 4;
      options.num_edb = 2;
      options.num_rules = 3 + static_cast<int>(rng.Below(7));
      options.negation_probability = 0.45;
      Program base = RandomProgram(&rng, options);
      // Half the instances get a guarded-loop pair spliced in — the shape
      // (p <- p, not q ; q <- q, not p) where the two orderings genuinely
      // diverge: the component is a tie AND an unfounded set.
      std::string text = ProgramToString(base);
      if (round % 2 == 0) {
        text += "gA :- gA, not gB.\ngB :- gB, not gA.\n";
      }
      Program program = ParseProgram(text).value();
      Database database = *RandomEdbDatabase(&program, 1, 0.5, &rng);
      const GroundingResult g = Ground(program, database).value();
      for (auto [mode, tally] :
           {std::pair{TieBreakingMode::kWellFounded, &wftb},
            std::pair{TieBreakingMode::kTieFirst, &tie_first}}) {
        RandomChoicePolicy policy(round);
        const InterpreterResult result =
            TieBreaking(program, database, g.graph, mode, &policy);
        ++tally->runs;
        if (!result.total) continue;
        ++tally->totals;
        if (IsStable(program, database, g.graph, result.values)) {
          ++tally->stable;
        }
      }
    }
    std::printf("%-24s %8s %10s %16s\n", "ordering", "runs", "%total",
                "%stable-of-total");
    std::printf("%s\n", std::string(62, '-').c_str());
    for (auto [name, t] : {std::pair{"unfounded-first (paper)", &wftb},
                           std::pair{"tie-first (ablation)", &tie_first}}) {
      std::printf("%-24s %8lld %9.1f%% %15.1f%%\n", name,
                  static_cast<long long>(t->runs),
                  100.0 * t->totals / t->runs,
                  t->totals ? 100.0 * t->stable / t->totals : 0.0);
    }
    std::printf("\nExpected: the paper's ordering reaches 100%% stable; the "
                "ablation does not\n(it can certify guarded loops true, as "
                "pure tie-breaking does).\n\n");
  }

  std::printf("EXP-ABL(b): choice policies on call-consistent programs\n\n");
  {
    Rng rng(0xAB3);
    int64_t first_totals = 0, random_totals = 0, runs = 0;
    int accepted = 0;
    while (accepted < 120) {
      RandomProgramOptions options;
      options.num_idb = 4;
      options.num_edb = 2;
      options.num_rules = 3 + static_cast<int>(rng.Below(7));
      options.negation_probability = 0.45;
      Program program = RandomProgram(&rng, options);
      if (!IsCallConsistent(program)) continue;
      ++accepted;
      Database database = *RandomEdbDatabase(&program, 1, 0.5, &rng);
      const GroundingResult g = Ground(program, database).value();
      ++runs;
      FirstChoicePolicy first;
      if (TieBreaking(program, database, g.graph,
                      TieBreakingMode::kWellFounded, &first)
              .total) {
        ++first_totals;
      }
      RandomChoicePolicy random(accepted);
      if (TieBreaking(program, database, g.graph,
                      TieBreakingMode::kWellFounded, &random)
              .total) {
        ++random_totals;
      }
    }
    std::printf("deterministic-first policy: %lld/%lld total;  random "
                "policy: %lld/%lld total\n",
                static_cast<long long>(first_totals),
                static_cast<long long>(runs),
                static_cast<long long>(random_totals),
                static_cast<long long>(runs));
    std::printf("Expected: both at 100%% — Theorem 1 holds for ALL "
                "choices.\n");
  }
  return 0;
}
