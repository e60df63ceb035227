// Stress suite: wider randomized sweeps with an independent reference
// implementation of close(M, G) (the paper's four rewrite rules applied
// naively over explicit node/edge sets, in randomized order) and
// cross-engine invariants at slightly larger scales. Runtime is kept to a
// few seconds.
#include <set>
#include <vector>

#include "core/completion.h"
#include "core/fixpoint.h"
#include "core/stable.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "ground/close.h"
#include "gtest/gtest.h"
#include "reference_interpreters.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

// ---------------------------------------------------------------------------
// Reference close(): the four rules of Section 2 applied naively until no
// rule applies, scanning in an order shuffled per round. Confluence says the
// result must equal CloseState's.
// ---------------------------------------------------------------------------

std::vector<Truth> ReferenceClose(const Program& program,
                                  const Database& database,
                                  const GroundGraph& graph, Rng* rng) {
  const int32_t n = graph.num_atoms();
  std::vector<Truth> value(n, Truth::kUndef);
  std::vector<char> atom_deleted(n, 0);
  std::vector<char> rule_deleted(graph.num_rules(), 0);

  // M0(Δ). The reference stays on the per-atom Contains path on purpose —
  // it is the independent implementation CloseState's bulk init is checked
  // against.
  for (AtomId a = 0; a < n; ++a) {
    const PredId pred = graph.atoms().PredicateOf(a);
    if (database.Contains(pred, graph.atoms().TupleOf(a))) {
      value[a] = Truth::kTrue;
    } else if (program.IsEdb(pred)) {
      value[a] = Truth::kFalse;
    }
  }

  std::vector<int32_t> atom_order(n), rule_order(graph.num_rules());
  for (int32_t i = 0; i < n; ++i) atom_order[i] = i;
  for (int32_t i = 0; i < graph.num_rules(); ++i) rule_order[i] = i;

  bool changed = true;
  while (changed) {
    changed = false;
    rng->Shuffle(&atom_order);
    rng->Shuffle(&rule_order);
    // Rules 1-2: delete valued atoms; kill rules with a mismatched arc.
    for (AtomId a : atom_order) {
      if (atom_deleted[a] || value[a] == Truth::kUndef) continue;
      atom_deleted[a] = 1;
      changed = true;
      const bool is_true = value[a] == Truth::kTrue;
      for (int32_t r : graph.PositiveConsumers(a)) {
        if (!is_true) rule_deleted[r] = 1;
      }
      for (int32_t r : graph.NegativeConsumers(a)) {
        if (is_true) rule_deleted[r] = 1;
      }
    }
    // Rule 3: a live rule node with no incoming edges fires.
    for (int32_t r : rule_order) {
      if (rule_deleted[r]) continue;
      bool has_incoming = false;
      for (AtomId a : graph.PositiveBody(r)) {
        if (!atom_deleted[a]) has_incoming = true;
      }
      for (AtomId a : graph.NegativeBody(r)) {
        if (!atom_deleted[a]) has_incoming = true;
      }
      if (has_incoming) continue;
      rule_deleted[r] = 1;
      changed = true;
      const AtomId head = graph.HeadOf(r);
      if (value[head] == Truth::kUndef) value[head] = Truth::kTrue;
    }
    // Rule 4: a live atom with no incoming edges becomes false.
    for (AtomId a : atom_order) {
      if (atom_deleted[a] || value[a] != Truth::kUndef) continue;
      bool has_incoming = false;
      for (int32_t r : graph.Supporters(a)) {
        if (!rule_deleted[r]) has_incoming = true;
      }
      if (!has_incoming) {
        value[a] = Truth::kFalse;
        changed = true;
      }
    }
  }
  return value;
}

TEST(StressTest, CloseMatchesRandomOrderReference) {
  Rng rng(0x5712E55);
  for (int round = 0; round < 120; ++round) {
    RandomProgramOptions options;
    options.num_idb = 3 + static_cast<int>(rng.Below(4));
    options.num_edb = 2;
    options.num_rules = 2 + static_cast<int>(rng.Below(10));
    options.negation_probability = 0.4;
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(&program, 1, 0.5, &rng);
    const GroundingResult g = GroundOrDie(Instance{program, database});

    CloseState state(program, database, g.graph);
    const std::vector<Truth> reference =
        ReferenceClose(program, database, g.graph, &rng);
    EXPECT_EQ(state.values(), reference) << "round " << round;
  }
}

TEST(StressTest, UnaryProgramsEndToEnd) {
  // Unary programs over multi-constant universes: grounding, all three
  // interpreters, SAT cross-validation and Lemma 2/3 checks.
  Rng rng(0xF00D);
  int totals = 0;
  for (int round = 0; round < 40; ++round) {
    RandomProgramOptions options;
    options.arity = 1;
    options.num_idb = 3;
    options.num_edb = 2;
    options.num_rules = 4 + static_cast<int>(rng.Below(5));
    options.negation_probability = 0.35;
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(&program, 4, 0.35, &rng);
    const GroundingResult g = GroundOrDie(Instance{program, database});

    const InterpreterResult wf = WellFounded(program, database, g.graph);
    const InterpreterResult alt =
        reference::AlternatingFixpointWellFounded(program, database, g.graph);
    ASSERT_EQ(wf.values, alt.values) << "round " << round;

    RandomChoicePolicy policy(round);
    const InterpreterResult wftb =
        TieBreaking(program, database, g.graph,
                    TieBreakingMode::kWellFounded, &policy);
    EXPECT_TRUE(IsConsistent(program, database, g.graph, wftb.values));
    if (wftb.total) {
      ++totals;
      EXPECT_TRUE(IsStable(program, database, g.graph, wftb.values))
          << "round " << round;
      // The SAT search must be able to find some fixpoint too.
      EXPECT_TRUE(HasFixpoint(program, database, g.graph));
    }
  }
  EXPECT_GT(totals, 15);
}

TEST(StressTest, LargerWinMoveBoardsStayConsistent) {
  Rng rng(0xB0A7);
  for (int n : {50, 120, 250}) {
    Program program = WinMoveProgram();
    Database board =
        *RandomDigraphDatabase(&program, "move", n, 2 * n, &rng);
    const GroundingResult g = GroundOrDie(Instance{program, board});
    const InterpreterResult wf = WellFounded(program, board, g.graph);
    const InterpreterResult wftb = TieBreaking(
        program, board, g.graph, TieBreakingMode::kWellFounded);
    EXPECT_TRUE(IsConsistent(program, board, g.graph, wftb.values));
    // WFTB extends WF.
    for (AtomId a = 0; a < g.graph.num_atoms(); ++a) {
      if (wf.values[a] != Truth::kUndef) {
        ASSERT_EQ(wftb.values[a], wf.values[a]) << "n=" << n;
      }
    }
    if (wftb.total) {
      EXPECT_TRUE(IsStable(program, board, g.graph, wftb.values));
    }
  }
}

TEST(StressTest, FixpointEnumerationTerminatesAndValidates) {
  Rng rng(0xE11);
  for (int round = 0; round < 60; ++round) {
    RandomProgramOptions options;
    options.num_idb = 4;
    options.num_edb = 2;
    options.num_rules = 3 + static_cast<int>(rng.Below(6));
    options.negation_probability = 0.5;
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(&program, 1, 0.5, &rng);
    const GroundingResult g = GroundOrDie(Instance{program, database});
    FixpointSearch search(program, database, g.graph);
    std::set<std::vector<Truth>> seen;
    while (auto model = search.Next()) {
      EXPECT_TRUE(IsFixpoint(program, database, g.graph, *model))
          << "round " << round;
      EXPECT_TRUE(seen.insert(*model).second) << "duplicate model";
      ASSERT_LE(seen.size(), 64u) << "runaway enumeration";
    }
  }
}

}  // namespace
}  // namespace tiebreak
