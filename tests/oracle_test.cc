// Definitional checks of CloseState (src/ground/close.h) against
// tests/oracle.h. Random programs over random EDB databases, grounded
// reduced and faithful, are driven through CloseState's public API by the
// interpreter loops of Sections 2 and 3: the well-founded loop (falsify
// the largest unfounded set, re-close) and tie-breaking loops that break a
// bottom tie, oriented at random, before or after falsifying. At every
// state a loop reaches:
//   - LargestUnfoundedSet() equals oracle::GreatestUnfoundedSet;
//   - RuleLive(r) holds exactly when no body literal of r is false and
//     some body atom of r is undefined, and num_live_rules() counts them.
// The suite tallies the states in which every live atom has a live
// supporter with no positive body atom (LargestUnfoundedSet's scan path)
// and those in which one has none (its simulation path), and the states
// with a non-empty unfounded set, so that a generator drifting away from
// either path fails the suite instead of passing vacuously.
#include <string>
#include <utility>
#include <vector>

#include "core/tie_breaking.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/printer.h"
#include "oracle.h"
#include "reference_grounder.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

constexpr int kRounds = 400;

struct Tally {
  int all_sourced = 0;  // every live atom has a live source supporter
  int unsourced = 0;    // some live atom has none
  int unfounded = 0;    // the oracle's set is non-empty
  int too_large = 0;    // more open atoms than the oracle enumerates
};

// How the loop picks its next step.
enum class Loop { kWellFounded, kTieFirst, kPure };

// Checks one state against the definitions and tallies it.
void CheckState(const CloseState& state, const std::string& what,
                Tally* tally) {
  const GroundGraph& graph = state.graph();
  const std::vector<Truth>& values = state.values();
  int32_t live_rules = 0;
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    bool undefined_body = false;
    for (const AtomId b : graph.PositiveBody(r)) {
      undefined_body |= values[b] == Truth::kUndef;
    }
    for (const AtomId b : graph.NegativeBody(r)) {
      undefined_body |= values[b] == Truth::kUndef;
    }
    const bool live =
        !oracle::HasFalseLiteral(graph, r, values) && undefined_body;
    EXPECT_EQ(state.RuleLive(r), live) << "rule " << r << "\n" << what;
    live_rules += live;
  }
  EXPECT_EQ(state.num_live_rules(), live_rules) << what;
  if (state.IsTotal()) return;

  bool all_sourced = true;
  for (const AtomId a : state.LiveAtoms()) {
    bool sourced = false;
    for (const int32_t r : graph.Supporters(a)) {
      sourced |= state.RuleLive(r) && graph.PositiveBody(r).empty();
    }
    all_sourced &= sourced;
  }
  ++(all_sourced ? tally->all_sourced : tally->unsourced);
  if (state.num_live_atoms() > oracle::kMaxOpenAtoms) {
    ++tally->too_large;
    return;
  }
  const std::vector<AtomId> want = oracle::GreatestUnfoundedSet(graph, values);
  EXPECT_EQ(state.LargestUnfoundedSet(), want) << what;
  tally->unfounded += !want.empty();
}

// Runs one interpreter loop on `graph`, checking every state it reaches.
void DriveLoop(const Program& program, const Database& database,
               const GroundGraph& graph, Loop loop, Rng* rng,
               const std::string& what, Tally* tally) {
  CloseState state(program, database, graph);
  const auto falsify = [&state]() {
    const std::vector<AtomId> unfounded = state.LargestUnfoundedSet();
    if (unfounded.empty()) return false;
    std::vector<std::pair<AtomId, bool>> assignments;
    for (const AtomId a : unfounded) assignments.emplace_back(a, false);
    state.SetAndClose(assignments);
    return true;
  };
  const auto break_tie = [&state, rng]() {
    const std::vector<TieView> ties = FindBottomTies(state);
    if (ties.empty()) return false;
    const TieView& tie = ties[rng->Below(ties.size())];
    // A tie with an empty side has no negative edge inside: all false.
    const bool one_sided = tie.side0.empty() || tie.side1.empty();
    const bool side0_true = !one_sided && rng->Chance(0.5);
    const bool side1_true = !one_sided && !side0_true;
    std::vector<std::pair<AtomId, bool>> assignments;
    for (const AtomId a : tie.side0) assignments.emplace_back(a, side0_true);
    for (const AtomId a : tie.side1) assignments.emplace_back(a, side1_true);
    state.SetAndClose(assignments);
    return true;
  };
  while (true) {
    CheckState(state, what, tally);
    if (state.IsTotal()) break;
    bool stepped = false;
    switch (loop) {
      case Loop::kWellFounded:
        stepped = falsify() || break_tie();
        break;
      case Loop::kTieFirst:
        stepped = break_tie() || falsify();
        break;
      case Loop::kPure:
        stepped = break_tie();
        break;
    }
    if (!stepped) break;
  }
}

void RunRandomSuite(int32_t arity, uint64_t seed) {
  Rng rng(seed);
  Tally tally;
  for (int round = 0; round < kRounds; ++round) {
    RandomProgramOptions options;
    options.num_idb = arity == 0 ? 3 + static_cast<int32_t>(rng.Below(8))
                                 : 2 + static_cast<int32_t>(rng.Below(3));
    options.num_edb = 1 + static_cast<int32_t>(rng.Below(2));
    options.num_rules = 3 + static_cast<int32_t>(rng.Below(8));
    options.negation_probability = 0.1 + 0.1 * rng.Below(5);
    options.arity = arity;
    Program program = RandomProgram(&rng, options);
    const int32_t universe = arity == 0 ? 1 : 2 + (arity == 1 ? 1 : 0);
    Result<Database> database =
        RandomEdbDatabase(&program, universe, 0.5, &rng);
    ASSERT_TRUE(database.ok()) << database.status().ToString();
    const std::string what = ProgramToString(program) + "\n% Δ\n" +
                             DatabaseToString(program, *database);
    for (const bool reduce : {true, false}) {
      Result<GroundingResult> ground =
          reduce ? Ground(program, *database)
                 : reference::GroundFaithful(program, *database);
      ASSERT_TRUE(ground.ok()) << ground.status().ToString() << "\n" << what;
      for (const Loop loop : {Loop::kWellFounded, Loop::kTieFirst,
                              Loop::kPure}) {
        DriveLoop(program, *database, ground->graph, loop, &rng,
                  what + (reduce ? "\n(reduced)" : "\n(faithful)"), &tally);
      }
    }
  }
  EXPECT_GT(tally.all_sourced, 0);
  EXPECT_GT(tally.unsourced, 0);
  EXPECT_GT(tally.unfounded, 0);
  // Most states must be small enough for the oracle.
  EXPECT_LT(tally.too_large * 4, tally.all_sourced + tally.unsourced);
}

TEST(CloseOracleTest, RandomPropositionalPrograms) {
  RunRandomSuite(/*arity=*/0, 0x0AC1E0);
}

TEST(CloseOracleTest, RandomUnaryPrograms) {
  RunRandomSuite(/*arity=*/1, 0x0AC1E1);
}

TEST(CloseOracleTest, RandomBinaryPrograms) {
  RunRandomSuite(/*arity=*/2, 0x0AC1E2);
}

}  // namespace
}  // namespace tiebreak
