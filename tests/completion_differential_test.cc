// Differential suite: FixpointSearch, which encodes only the residue that
// the Kripke–Kleene close leaves live, against the full completion encoder
// it replaced (tests/reference_completion.h). Both enumerate every fixpoint
// of the same ground graph; the sorted fixpoint sets and the HasFixpoint
// verdicts must be equal.
//
// Instances: random programs over random EDB databases, grounded reduced
// and faithful, plus hand-written edge cases (odd self-loops, positive
// loops, contradictory bodies, duplicated body literals, empty-body rules,
// Δ listing IDB atoms, a total Kripke–Kleene model), negation rings and
// win/move cycles.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/completion.h"
#include "core/fixpoint.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/printer.h"
#include "reference_completion.h"
#include "reference_grounder.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

constexpr int kRounds = 300;

// How a suite's instances fared, so a generator that drifts into producing
// only one kind of instance fails the suite instead of passing vacuously.
struct Tally {
  int none = 0;     // no fixpoint
  int one = 0;      // exactly one
  int many = 0;     // two or more
  int decided = 0;  // the close decided at least one IDB atom
  int live = 0;     // and left at least one atom live
};

// Every fixpoint the search yields, sorted.
template <typename Search>
std::vector<std::vector<Truth>> AllFixpoints(Search* search) {
  std::vector<std::vector<Truth>> models;
  while (std::optional<std::vector<Truth>> model = search->Next()) {
    models.push_back(std::move(*model));
  }
  std::sort(models.begin(), models.end());
  return models;
}

// The production search and the reference agree on the fixpoint set and
// on HasFixpoint; returns the set.
std::vector<std::vector<Truth>> ExpectSameFixpoints(
    const Program& program, const Database& database, const GroundGraph& graph,
    const std::string& what, Tally* tally = nullptr) {
  FixpointSearch search(program, database, graph);
  reference::FixpointSearch oracle(program, database, graph);
  const int32_t vars = search.solver().num_vars();
  const std::vector<std::vector<Truth>> got = AllFixpoints(&search);
  const std::vector<std::vector<Truth>> want = AllFixpoints(&oracle);
  EXPECT_TRUE(search.truncation().ok()) << what;
  EXPECT_EQ(got, want) << what;
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end()) << what;
  for (const std::vector<Truth>& model : got) {
    EXPECT_TRUE(IsFixpoint(program, database, graph, model)) << what;
  }
  EXPECT_EQ(HasFixpoint(program, database, graph),
            reference::HasFixpoint(program, database, graph))
      << what;
  // HasFixpoint on a search does not consume the witness.
  FixpointSearch peek(program, database, graph);
  const bool has = peek.HasFixpoint();
  EXPECT_EQ(has, !want.empty()) << what;
  if (has) {
    const std::optional<std::vector<Truth>> first = peek.Next();
    EXPECT_TRUE(first.has_value() &&
                std::binary_search(want.begin(), want.end(), *first))
        << what;
  }
  if (tally != nullptr) {
    if (want.empty()) {
      ++tally->none;
    } else if (want.size() == 1) {
      ++tally->one;
    } else {
      ++tally->many;
    }
    // M0(Δ) leaves the IDB atoms outside Δ open; count the instances whose
    // close decides some of them but not all.
    const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
    int32_t open = 0;
    for (AtomId a = 0; a < graph.num_atoms(); ++a) {
      open += !in_delta[a] && !program.IsEdb(graph.atoms().PredicateOf(a));
    }
    const CloseState close(program, database, graph);
    if (close.num_live_atoms() < open) {
      ++tally->decided;
      if (close.num_live_atoms() > 0) ++tally->live;
    }
    EXPECT_EQ(vars == 0, close.IsTotal()) << what;
  }
  return got;
}

// Random programs of `arity` over random EDB databases, in both grounding
// modes.
void RunRandomSuite(int32_t arity, uint64_t seed) {
  Rng rng(seed);
  Tally tally;
  for (int round = 0; round < kRounds; ++round) {
    RandomProgramOptions options;
    options.num_idb = 2 + static_cast<int32_t>(rng.Below(3));
    options.num_edb = 1 + static_cast<int32_t>(rng.Below(2));
    options.num_rules = 3 + static_cast<int32_t>(rng.Below(6));
    options.negation_probability = 0.2 + 0.1 * rng.Below(5);
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
      ExpectSameFixpoints(program, *database, ground->graph,
                          what + (reduce ? "\n(reduced)" : "\n(faithful)"),
                          &tally);
    }
  }
  EXPECT_GT(tally.none, 0);
  EXPECT_GT(tally.one, 0);
  EXPECT_GT(tally.many, 0);
  EXPECT_GT(tally.decided, 0);
  EXPECT_GT(tally.live, 0);
}

TEST(CompletionDifferentialTest, RandomPropositionalPrograms) {
  RunRandomSuite(/*arity=*/0, 0xC0DE0);
}

TEST(CompletionDifferentialTest, RandomUnaryPrograms) {
  RunRandomSuite(/*arity=*/1, 0xC0DE1);
}

TEST(CompletionDifferentialTest, RandomBinaryPrograms) {
  RunRandomSuite(/*arity=*/2, 0xC0DE2);
}

// Hand-written instances with their fixpoint counts.
TEST(CompletionDifferentialTest, EdgeCases) {
  struct Case {
    const char* program;
    const char* database;
    size_t fixpoints;
  };
  const Case cases[] = {
      {"p :- not p.", "", 0},
      {"p :- p.", "", 2},
      {"p :- q, not q.", "", 1},
      {"p :- q, not q. q :- q.", "", 2},
      {"p :- q, not q. q :- not r. r :- not q.", "", 2},
      // Duplicated body literals.
      {"p :- q, q, not r, not r. q :- not s. s :- not q. r :- r.", "", 4},
      {"p :- not p, not p.", "", 0},
      {"p :- p, p.", "", 2},
      // Empty-body rules.
      {"p. q :- not p. r :- not r, p.", "", 0},
      {"p. q :- not p. r :- not s. s :- not r.", "", 2},
      {"p. p :- not p.", "", 1},
      {"a(X) :- e(X), not b(X). b(X) :- e(X), not a(X). c.",
       "e(x). e(y).", 4},
      // Δ listing IDB atoms: listed atoms are true whatever their rules.
      {"p :- not q. q :- not p.", "p.", 1},
      {"p :- not p.", "p.", 1},
      {"p :- q. q :- not p.", "q.", 1},
      {"w(X) :- m(X, Y), not w(Y).", "m(a, b). m(b, a). w(a).", 1},
      {"w(X) :- m(X, Y), not w(Y).", "m(a, a). w(a).", 1},
  };
  for (const Case& c : cases) {
    const Instance inst = ParseInstance(c.program, c.database);
    for (const bool reduce : {true, false}) {
      const GroundingResult ground =
          reduce ? GroundOrDie(inst)
                 : reference::GroundFaithful(inst.program, inst.database)
                       .value();
      const std::string what = std::string(c.program) + " | " + c.database +
                               (reduce ? " (reduced)" : " (faithful)");
      EXPECT_EQ(ExpectSameFixpoints(inst.program, inst.database, ground.graph,
                                    what)
                    .size(),
                c.fixpoints)
          << what;
    }
  }
}

// A stratified instance: the Kripke–Kleene model is total, so the search
// has no variable and exactly one fixpoint, which is that model.
TEST(CompletionDifferentialTest, TotalKripkeKleeneModelNeedsNoVariable) {
  Program program = WinMoveProgram();
  const Database database = *ChainDatabase(&program, "move", 64);
  const GroundingResult ground = Ground(program, database).value();
  FixpointSearch search(program, database, ground.graph);
  EXPECT_EQ(search.solver().num_vars(), 0);
  const std::vector<std::vector<Truth>> models =
      ExpectSameFixpoints(program, database, ground.graph, "chain 64");
  ASSERT_EQ(models.size(), 1u);
  for (const Truth t : models[0]) EXPECT_NE(t, Truth::kUndef);

  const Instance inst = ParseInstance("p :- q, not q. r :- not p.");
  const GroundingResult small = GroundOrDie(inst);
  FixpointSearch small_search(inst.program, inst.database, small.graph);
  EXPECT_EQ(small_search.solver().num_vars(), 0);
  EXPECT_EQ(small_search.Count(0), 1);
}

// p0 :- not p1, ..., p_{k-1} :- not p0: two fixpoints for even k, none for
// odd k; nothing is decided by the close.
TEST(CompletionDifferentialTest, NegationRings) {
  for (int32_t k = 1; k <= 10; ++k) {
    const Program program = NegationRingProgram(k);
    const Database database(program);
    const GroundingResult ground = Ground(program, database).value();
    const std::string what = "ring " + std::to_string(k);
    EXPECT_EQ(
        ExpectSameFixpoints(program, database, ground.graph, what).size(),
        k % 2 == 0 ? 2u : 0u)
        << what;
  }
}

// win/move over a directed cycle of length k: two fixpoints for even k,
// none for odd k. With a tail hanging off the cycle the close decides the
// tail's end and leaves the cycle live.
TEST(CompletionDifferentialTest, WinMoveCycles) {
  for (int32_t k = 1; k <= 9; ++k) {
    Program program = WinMoveProgram();
    const Database cycle = *CycleDatabase(&program, "move", k);
    const GroundingResult ground = Ground(program, cycle).value();
    const std::string what = "cycle " + std::to_string(k);
    EXPECT_EQ(ExpectSameFixpoints(program, cycle, ground.graph, what).size(),
              k % 2 == 0 ? 2u : 0u)
        << what;

    // The same cycle with a two-move tail n0 -> t0 -> t1 (t1 a sink).
    Database tailed = cycle;
    const PredId move = program.LookupPredicate("move");
    const ConstId n0 = program.InternConstant("n0");
    const ConstId t0 = program.InternConstant("t0");
    const ConstId t1 = program.InternConstant("t1");
    tailed.Insert(move, Tuple{n0, t0});
    tailed.Insert(move, Tuple{t0, t1});
    const GroundingResult tailed_ground = Ground(program, tailed).value();
    ExpectSameFixpoints(program, tailed, tailed_ground.graph,
                        what + " with a tail");
  }
}

}  // namespace
}  // namespace tiebreak
