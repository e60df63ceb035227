// Differential suite: IsStable, which checks a total model against its
// Gelfond–Lifschitz reduct in one sweep plus a counter pass only when some
// true atom is supported solely through positive bodies, against the
// close(M⁻, G) check it replaced (tests/reference_stable.h). On tiny random
// instances (at most 12 atoms; positive and negative IDB literals, EDB
// literals, empty-body rules, Δ listing IDB atoms; reduced and faithful
// grounding) both give the same verdict for every total assignment, and
// both reject a partial one. Hand cases pin known answers, and a long
// positive chain runs the counter pass's checkpoints under fault injection.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fixpoint.h"
#include "core/stable.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "reference_grounder.h"
#include "reference_stable.h"
#include "test_util.h"
#include "util/execution_context.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

constexpr int32_t kMaxAtoms = 12;
constexpr int kRounds = 300;

// How the assignments fared, so a generator that drifts into producing
// only one kind of instance fails the suite instead of passing vacuously.
struct Tally {
  int64_t instances = 0;     // groundings checked
  int64_t stable = 0;        // stable models
  int64_t unstable = 0;      // fixpoints that are not stable
  int64_t counter_pass = 0;  // stable models whose check needs the counter
                             // pass (see NeedsCounterPass)
};

std::vector<Truth> FromMask(int32_t n, uint32_t mask) {
  std::vector<Truth> values(n);
  for (int32_t a = 0; a < n; ++a) {
    values[a] = ((mask >> a) & 1) != 0 ? Truth::kTrue : Truth::kFalse;
  }
  return values;
}

// True iff some true IDB atom outside Δ has no true-bodied supporter
// without a positive body: the sweep cannot derive it outright.
bool NeedsCounterPass(const Program& program, const Database& database,
                      const GroundGraph& graph,
                      const std::vector<Truth>& values) {
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (values[a] != Truth::kTrue || in_delta[a] ||
        program.IsEdb(graph.atoms().PredicateOf(a))) {
      continue;
    }
    bool outright = false;
    for (const int32_t r : graph.Supporters(a)) {
      outright = outright || (graph.PositiveBody(r).empty() &&
                              BodyTrue(graph, r, values));
    }
    if (!outright) return true;
  }
  return false;
}

// Both checks agree on every total assignment of the graph's atoms (and on
// one partial assignment per mask); the governed check agrees too.
void ExpectSameVerdicts(const Instance& inst, const GroundGraph& graph,
                        const std::string& what, Tally* tally) {
  const int32_t n = graph.num_atoms();
  ASSERT_LE(n, kMaxAtoms) << what;
  ++tally->instances;
  ExecutionContext context;  // governs, never trips
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<Truth> values = FromMask(n, mask);
    const bool want = reference::IsStable(inst.program, inst.database, graph,
                                          values);
    ASSERT_EQ(IsStable(inst.program, inst.database, graph, values), want)
        << what << "\nassignment mask " << mask;
    const Result<bool> governed = IsStableGoverned(
        inst.program, inst.database, graph, values, &context);
    ASSERT_TRUE(governed.ok()) << what;
    EXPECT_EQ(governed.value(), want) << what << "\nassignment mask " << mask;
    if (IsFixpoint(inst.program, inst.database, graph, values)) {
      if (want) {
        ++tally->stable;
        if (NeedsCounterPass(inst.program, inst.database, graph, values)) {
          ++tally->counter_pass;
        }
      } else {
        ++tally->unstable;
      }
    } else {
      EXPECT_FALSE(want) << what << "\nassignment mask " << mask;
    }
    if (n > 0) {
      values[mask % n] = Truth::kUndef;
      EXPECT_FALSE(IsStable(inst.program, inst.database, graph, values))
          << what << "\npartial assignment mask " << mask;
      EXPECT_FALSE(reference::IsStable(inst.program, inst.database, graph,
                                       values))
          << what;
    }
  }
}

// A random literal over the IDB predicates p0..p{idb-1} and EDB predicates
// e0, e1, negated with probability 0.45; `arg` is appended for unary
// predicates ("" at arity 0).
std::string RandomLiteral(Rng* rng, int32_t idb, const std::string& arg) {
  std::string atom = rng->Chance(0.25)
                         ? "e" + std::to_string(rng->Below(2))
                         : "p" + std::to_string(rng->Below(idb));
  if (!arg.empty()) atom += "(" + arg + ")";
  return (rng->Chance(0.45) ? "not " : "") + atom;
}

// A tiny random instance. At arity 0: rules over p0..p4 and e0, e1 with
// zero to three body literals. At arity 1: rules over X and Y, anchored by
// d(X) (and d(Y)) over a two-constant universe, plus ground empty-body
// rules. Δ lists EDB atoms and, now and then, IDB atoms, of the predicates
// the rules name.
Instance RandomInstance(Rng* rng, int32_t arity) {
  const int32_t idb = arity == 0 ? 2 + static_cast<int32_t>(rng->Below(4))
                                 : 2 + static_cast<int32_t>(rng->Below(2));
  const std::vector<std::string> constants = {"a", "b"};
  const int32_t rules = 2 + static_cast<int32_t>(rng->Below(7));
  std::string program;
  for (int32_t r = 0; r < rules; ++r) {
    const std::string head = "p" + std::to_string(rng->Below(idb));
    const int32_t body = static_cast<int32_t>(rng->Below(4));
    if (arity == 0) {
      program += head;
      for (int32_t b = 0; b < body; ++b) {
        program += (b == 0 ? " :- " : ", ") + RandomLiteral(rng, idb, "");
      }
    } else if (body == 0) {
      program += head + "(" + constants[rng->Below(2)] + ")";
    } else {
      program += head + "(X) :- d(X)";
      bool uses_y = false;
      for (int32_t b = 0; b < body; ++b) {
        const bool y = rng->Chance(0.4);
        uses_y = uses_y || y;
        program += ", " + RandomLiteral(rng, idb, y ? "Y" : "X");
      }
      if (uses_y) program += ", d(Y)";
    }
    program += ".\n";
  }
  const Result<Program> parsed = ParseProgram(program);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << program;
  std::string database;
  const auto maybe_fact = [&](const std::string& pred, const std::string& arg,
                              double chance) {
    if (!rng->Chance(chance) || !parsed.ok() ||
        parsed->LookupPredicate(pred) < 0) {
      return;
    }
    database += pred + (arg.empty() ? "" : "(" + arg + ")") + ".\n";
  };
  for (const std::string& arg :
       arity == 0 ? std::vector<std::string>{""} : constants) {
    if (arity > 0) maybe_fact("d", arg, 0.85);
    for (int32_t e = 0; e < 2; ++e) {
      maybe_fact("e" + std::to_string(e), arg, 0.5);
    }
    for (int32_t p = 0; p < idb; ++p) {
      maybe_fact("p" + std::to_string(p), arg, arity == 0 ? 0.12 : 0.08);
    }
  }
  return ParseInstance(program, database);
}

void RunRandomSuite(int32_t arity, uint64_t seed) {
  Rng rng(seed);
  Tally tally;
  for (int round = 0; round < kRounds; ++round) {
    const Instance inst = RandomInstance(&rng, arity);
    const std::string what =
        ProgramToString(inst.program) + "\n% Δ\n" +
        DatabaseToString(inst.program, inst.database);
    for (const bool reduce : {true, false}) {
      const GroundingResult ground =
          reduce ? GroundOrDie(inst)
                 : reference::GroundFaithful(inst.program, inst.database)
                       .value();
      if (ground.graph.num_atoms() > kMaxAtoms) continue;
      ExpectSameVerdicts(inst, ground.graph,
                         what + (reduce ? "\n(reduced)" : "\n(faithful)"),
                         &tally);
    }
  }
  EXPECT_GT(tally.instances, kRounds);
  EXPECT_GT(tally.stable, 0);
  EXPECT_GT(tally.unstable, 0);
  EXPECT_GT(tally.counter_pass, 0);
}

TEST(StableDifferentialTest, RandomPropositionalPrograms) {
  RunRandomSuite(/*arity=*/0, 0x57AB0);
}

TEST(StableDifferentialTest, RandomUnaryPrograms) {
  RunRandomSuite(/*arity=*/1, 0x57AB1);
}

// Hand-written instances with their stable models, their fixpoints that
// are not stable, and the stable models whose check needs the counter
// pass, counted over every total assignment.
TEST(StableDifferentialTest, EdgeCases) {
  struct Case {
    const char* program;
    const char* database;
    int64_t stable;
    int64_t unstable;
    int64_t counter_pass;
  };
  const Case cases[] = {
      // A fixpoint that is not stable: p supports only itself.
      {"p :- p.", "", 1, 1, 0},
      {"p :- q. q :- p. r :- not p.", "", 1, 1, 0},
      // A positive chain below a choice: {a, c, d, e} needs the counter
      // pass (c, d and e are supported only through positive bodies).
      {"a :- not b. b :- not a. c :- a. d :- c, a. e :- d, not b.", "", 2, 0,
       1},
      // p's first true supporter has a positive body; the second derives p
      // outright, and q then needs the counter pass.
      {"p :- q. p :- not r. q :- p. r :- not p.", "", 2, 0, 1},
      // A positive loop guarded by negation, and with duplicated literals;
      // duplicated literals in a stable model's counter pass.
      {"p :- q, not r. q :- p. r :- not p.", "", 1, 1, 0},
      {"p :- q, q. q :- p, p. r :- not p.", "", 1, 1, 0},
      {"a :- not b. b :- not a. c :- a, a. d :- c, c, not b.", "", 2, 0, 1},
      // Δ listing an IDB atom derives it; an EDB fact seeds the faithful
      // graph's counter pass (reduced grounding turns q :- e into q.).
      {"p :- p.", "p.", 1, 0, 0},
      {"p :- q. q :- p. q :- e.", "e.", 1, 0, 1},
      // Empty-body rules.
      {"p. q :- p. r :- q, not s. s :- not r.", "", 2, 0, 2},
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
      Tally tally;
      ExpectSameVerdicts(inst, ground.graph, what, &tally);
      EXPECT_EQ(tally.stable, c.stable) << what;
      EXPECT_EQ(tally.unstable, c.unstable) << what;
      EXPECT_EQ(tally.counter_pass, c.counter_pass) << what;
    }
  }
}

// reach over a 600-edge chain from its start, all true: stable, through a
// counter pass of 600 pops. The same chain beside a two-cycle off the
// start, all true: a fixpoint, not stable, and the counter pass still
// walks the chain. The counter pass checkpoints every 256 pops; a trip at
// any checkpoint returns the trip Status instead of a verdict, and a rerun
// gives the verdict again.
TEST(StableDifferentialTest, CounterPassCheckpointsAndTrips) {
  constexpr int32_t kEdges = 600;
  const std::string program =
      "reach(X) :- start(X). reach(Y) :- reach(X), edge(X, Y).";
  std::string chain;
  for (int32_t i = 0; i < kEdges; ++i) {
    chain += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
             ").\n";
  }
  chain += "start(n0).\n";
  for (const auto& [database, stable] :
       {std::pair<std::string, bool>{chain, true},
        std::pair<std::string, bool>{chain + "edge(m0, m1). edge(m1, m0).\n",
                                     false}}) {
    const Instance inst = ParseInstance(program, database);
    const GroundingResult ground = GroundOrDie(inst);
    const GroundGraph& graph = ground.graph;
    ASSERT_EQ(graph.num_atoms(), kEdges + (stable ? 1 : 3));
    const std::vector<Truth> all_true(graph.num_atoms(), Truth::kTrue);
    ASSERT_TRUE(IsFixpoint(inst.program, inst.database, graph, all_true));
    EXPECT_EQ(reference::IsStable(inst.program, inst.database, graph,
                                  all_true),
              stable);

    fault_injection::CountCheckpoints();
    ExecutionContext count_context;
    const Result<bool> clean = IsStableGoverned(
        inst.program, inst.database, graph, all_true, &count_context);
    const int64_t checkpoints = fault_injection::CheckpointsObserved();
    fault_injection::Disarm();
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(clean.value(), stable);
    // The entry checkpoint and at least two blocks of the counter pass.
    ASSERT_GE(checkpoints, 3);

    for (int64_t n = 0; n < checkpoints; ++n) {
      fault_injection::TripAtCheckpoint(n);
      ExecutionContext context;
      const Result<bool> tripped = IsStableGoverned(
          inst.program, inst.database, graph, all_true, &context);
      fault_injection::Disarm();
      ASSERT_FALSE(tripped.ok()) << "checkpoint " << n;
      EXPECT_EQ(tripped.status().code(), StatusCode::kCancelled)
          << "checkpoint " << n;
      EXPECT_EQ(context.truncation().layer, "stable") << "checkpoint " << n;
    }
    ExecutionContext rerun_context;
    const Result<bool> rerun = IsStableGoverned(
        inst.program, inst.database, graph, all_true, &rerun_context);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(rerun.value(), stable);
  }
}

}  // namespace
}  // namespace tiebreak
