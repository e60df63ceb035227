// Robustness suite: the parser must never crash — every input either parses
// or returns a clean INVALID_ARGUMENT — and parsed programs must survive the
// whole pipeline. Inputs are random byte soup, random token soup, and
// mutations of valid programs. Also exercises the CHECK macros' abort
// behavior via death tests.
#include <string>
#include <vector>

#include "core/query_plan.h"
#include "core/stratification.h"
#include "core/well_founded.h"
#include "engine/evaluation.h"
#include "ground/ground_scc.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/transform.h"
#include "sat/solver.h"
#include "sat_brute_force.h"
#include "storage/snapshot.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

TEST(ParserFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(0xF022);
  const std::string alphabet =
      "abcXYZ019_(),.:-!% \t\nnot p q win move";
  for (int round = 0; round < 2000; ++round) {
    std::string input;
    const int length = static_cast<int>(rng.Below(60));
    for (int i = 0; i < length; ++i) {
      input += alphabet[rng.Below(alphabet.size())];
    }
    Result<Program> result = ParseProgram(input);
    if (result.ok()) {
      // Whatever parsed must validate and print-parse round-trip.
      EXPECT_TRUE(result->Validate().ok()) << input;
      Result<Program> again = ParseProgram(ProgramToString(*result));
      EXPECT_TRUE(again.ok()) << input;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << input;
    }
  }
}

TEST(ParserFuzzTest, ArbitraryBytesRejectGracefully) {
  Rng rng(0xF023);
  for (int round = 0; round < 500; ++round) {
    std::string input;
    const int length = static_cast<int>(rng.Below(40));
    for (int i = 0; i < length; ++i) {
      input += static_cast<char>(1 + rng.Below(127));  // any non-NUL byte
    }
    Result<Program> result = ParseProgram(input);  // must not crash
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(ParserFuzzTest, MutatedValidProgramsSurviveThePipeline) {
  const std::string base =
      "win(X) :- move(X, Y), not win(Y).\n"
      "p :- not q.\nq :- not p.\nseed(a).\n";
  Rng rng(0xF024);
  int parsed_count = 0;
  for (int round = 0; round < 500; ++round) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.Below(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Below(mutated.size());
      switch (rng.Below(3)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, "XYvq(),.!"[rng.Below(9)]);
          break;
        default:
          mutated[pos] = "XYvq(),.!"[rng.Below(9)];
          break;
      }
    }
    Result<Program> program = ParseProgram(mutated);
    if (!program.ok()) continue;
    ++parsed_count;
    // The full pipeline must handle whatever still parses.
    Database database(*program);
    Result<GroundingResult> ground = Ground(*program, database);
    if (!ground.ok()) continue;
    const InterpreterResult wf =
        WellFounded(*program, database, ground->graph);
    EXPECT_LE(wf.CountUndefined(), ground->graph.num_atoms());
  }
  EXPECT_GT(parsed_count, 50) << "mutation rate too destructive for the "
                                 "suite to be meaningful";
}

TEST(ParserFuzzTest, DatabaseFuzz) {
  Rng rng(0xF025);
  for (int round = 0; round < 800; ++round) {
    std::string input;
    const int length = static_cast<int>(rng.Below(40));
    const std::string alphabet = "abX01(),. %";
    for (int i = 0; i < length; ++i) {
      input += alphabet[rng.Below(alphabet.size())];
    }
    Result<Program> program = ParseProgram("p(X) :- e(X).");
    ASSERT_TRUE(program.ok());
    Program prog = std::move(*program);
    Result<Database> db = ParseDatabase(input, &prog);  // must not crash
    if (db.ok()) {
      EXPECT_GE(db->TotalFacts(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot bytes: the storage loader shares the parser's contract — any
// byte string either loads or returns a structured Status.
// ---------------------------------------------------------------------------

TEST(SnapshotFuzzTest, RandomBytesNeverCrashTheLoader) {
  Rng rng(0xF026);
  for (int round = 0; round < 1500; ++round) {
    std::string input;
    const int length = static_cast<int>(rng.Below(256));
    for (int i = 0; i < length; ++i) {
      input += static_cast<char>(rng.Below(256));
    }
    // Random bytes essentially never carry a valid magic + CRC; the point
    // is that rejection is a Status, not a crash or sanitizer finding.
    Result<storage::SnapshotContents> loaded =
        storage::LoadSnapshotFromBuffer(input);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

TEST(SnapshotFuzzTest, MutatedValidSnapshotsNeverCrashTheLoader) {
  Result<Program> program = ParseProgram(
      "win(X) :- move(X, Y), not win(Y).\n");
  ASSERT_TRUE(program.ok());
  Result<Database> database =
      ParseDatabase("move(a, b). move(b, c).", &*program);
  ASSERT_TRUE(database.ok());
  Result<GroundingResult> ground = Ground(*program, *database);
  ASSERT_TRUE(ground.ok());
  Result<std::string> bytes = storage::SerializeSnapshot(
      *program, &*database, &ground->graph);
  ASSERT_TRUE(bytes.ok());

  Rng rng(0xF027);
  for (int round = 0; round < 1500; ++round) {
    std::string mutated = *bytes;
    const int edits = 1 + static_cast<int>(rng.Below(6));
    for (int e = 0; e < edits && !mutated.empty(); ++e) {
      switch (rng.Below(4)) {
        case 0:
          mutated[rng.Below(mutated.size())] =
              static_cast<char>(rng.Below(256));
          break;
        case 1:
          mutated.erase(rng.Below(mutated.size()), 1 + rng.Below(16));
          break;
        case 2:
          mutated.insert(rng.Below(mutated.size() + 1), 1 + rng.Below(8),
                         static_cast<char>(rng.Below(256)));
          break;
        default:
          mutated.resize(rng.Below(mutated.size() + 1));
          break;
      }
    }
    storage::SnapshotReadOptions read;
    read.program = &*program;
    (void)storage::LoadSnapshotFromBuffer(mutated, read);  // must not crash
    (void)storage::ReadSnapshotInfo(mutated);              // ditto
  }
}

// ---------------------------------------------------------------------------
// SCC scheduler over hostile ground graphs: hand-built rule structures
// (cyclic negation, self-loops, empty components, duplicate rules) and
// random mutations must neither crash nor hang the wave scheduler that the
// parallel perfect-model interpreter runs on.
// ---------------------------------------------------------------------------

// A graph of `num_atoms` nullary atoms (one per predicate id).
std::vector<AtomId> InternAtoms(GroundGraph* graph, int32_t num_atoms) {
  std::vector<AtomId> atoms(num_atoms);
  for (int32_t i = 0; i < num_atoms; ++i) {
    atoms[i] = graph->atoms().Intern(static_cast<PredId>(i), nullptr, 0);
  }
  return atoms;
}

// Schedule invariants that must hold for *any* finalized graph: every node
// in exactly one component, `order` a permutation of the components, every
// cross-component edge pointing to a strictly later wave.
void ExpectScheduleWellFormed(const GroundGraph& graph) {
  const SccSchedule schedule = BuildSccSchedule(graph);
  const SccResult& scc = schedule.scc;
  const int32_t num_nodes = graph.num_atoms() + graph.num_rules();
  std::vector<int32_t> seen(num_nodes, 0);
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    for (int32_t node : scc.Members(comp)) {
      ASSERT_EQ(scc.component[node], comp);
      ++seen[node];
    }
  }
  for (int32_t node = 0; node < num_nodes; ++node) {
    ASSERT_EQ(seen[node], 1) << "node " << node;
  }
  ASSERT_EQ(static_cast<int32_t>(schedule.order.size()), scc.num_components);
  auto check_edge = [&](int32_t from, int32_t to) {
    if (scc.component[from] == scc.component[to]) return;
    ASSERT_LT(schedule.wave[scc.component[from]],
              schedule.wave[scc.component[to]]);
  };
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_node = graph.num_atoms() + r;
    for (AtomId a : graph.PositiveBody(r)) check_edge(a, rule_node);
    for (AtomId a : graph.NegativeBody(r)) check_edge(a, rule_node);
    check_edge(rule_node, graph.HeadOf(r));
  }
}

TEST(SccSchedulerFuzzTest, HandBuiltAdversarialGraphs) {
  std::vector<GroundGraph> graphs;

  {  // Empty graph: no atoms, no rules.
    GroundGraph graph;
    graph.Finalize();
    graphs.push_back(std::move(graph));
  }
  {  // Isolated atoms only: every component empty of rules.
    GroundGraph graph;
    InternAtoms(&graph, 5);
    graph.Finalize();
    graphs.push_back(std::move(graph));
  }
  {  // Negative self-loop (p :- not p) and positive self-loop (q :- q).
    GroundGraph graph;
    const std::vector<AtomId> a = InternAtoms(&graph, 2);
    graph.AppendRule(0, a[0], nullptr, 0, &a[0], 1, nullptr, 0);
    graph.AppendRule(1, a[1], &a[1], 1, nullptr, 0, nullptr, 0);
    graph.Finalize();
    graphs.push_back(std::move(graph));
  }
  {  // Odd and even negation rings plus an isolated atom between them.
    GroundGraph graph;
    const std::vector<AtomId> a = InternAtoms(&graph, 8);
    for (int32_t i = 0; i < 3; ++i) {  // odd ring over a[0..2]
      const AtomId body = a[(i + 1) % 3];
      graph.AppendRule(i, a[i], nullptr, 0, &body, 1, nullptr, 0);
    }
    for (int32_t i = 0; i < 4; ++i) {  // even ring over a[4..7]
      const AtomId body = a[4 + (i + 1) % 4];
      graph.AppendRule(3 + i, a[4 + i], nullptr, 0, &body, 1, nullptr, 0);
    }
    graph.Finalize();
    graphs.push_back(std::move(graph));
  }
  {  // Duplicate rules, empty bodies, and a head that is its own positive
     // and negative body atom at once.
    GroundGraph graph;
    const std::vector<AtomId> a = InternAtoms(&graph, 3);
    graph.AppendRule(0, a[0], nullptr, 0, nullptr, 0, nullptr, 0);
    graph.AppendRule(0, a[0], nullptr, 0, nullptr, 0, nullptr, 0);
    graph.AppendRule(1, a[1], &a[1], 1, &a[1], 1, nullptr, 0);
    graph.AppendRule(2, a[2], &a[0], 1, &a[1], 1, nullptr, 0);
    graph.Finalize();
    graphs.push_back(std::move(graph));
  }

  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE("graph " + std::to_string(i));
    const GroundGraph& graph = graphs[i];
    ExpectScheduleWellFormed(graph);
  }
}

TEST(SccSchedulerFuzzTest, RandomMutatedGroundGraphs) {
  Rng rng(0xF028);
  for (int round = 0; round < 120; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    GroundGraph graph;
    const int32_t num_atoms = 1 + static_cast<int32_t>(rng.Below(24));
    const std::vector<AtomId> atoms = InternAtoms(&graph, num_atoms);
    const int32_t num_rules = static_cast<int32_t>(rng.Below(40));
    for (int32_t r = 0; r < num_rules; ++r) {
      const AtomId head = atoms[rng.Below(atoms.size())];
      std::vector<AtomId> pos;
      std::vector<AtomId> neg;
      const int32_t body = static_cast<int32_t>(rng.Below(4));
      for (int32_t b = 0; b < body; ++b) {
        // Self-loops (head in its own body) arise naturally here.
        const AtomId atom = atoms[rng.Below(atoms.size())];
        (rng.Chance(0.45) ? neg : pos).push_back(atom);
      }
      graph.AppendRule(r, head, pos.data(),
                       static_cast<int32_t>(pos.size()), neg.data(),
                       static_cast<int32_t>(neg.size()), nullptr, 0);
    }
    graph.Finalize();
    ExpectScheduleWellFormed(graph);
  }
}

// ---------------------------------------------------------------------------
// SAT solver under hostile clause streams: adversarial widths, duplicate
// and tautological clauses, out-of-range literals (Status, never a crash),
// and incremental Solve/AddClause/BlockModel interleavings. Differential
// check: every verdict is the truth table's (tests/sat_brute_force.h).
// ---------------------------------------------------------------------------

TEST(SatSolverFuzzTest, AdversarialClauseStreamsNeverCrash) {
  Rng rng(0xF029);
  for (int round = 0; round < 300; ++round) {
    SatSolver solver;
    const int n = 1 + static_cast<int>(rng.Below(16));
    for (int v = 0; v < n; ++v) solver.NewVar();
    const int m = static_cast<int>(rng.Below(6 * n + 1));
    std::vector<std::vector<SatLit>> clauses;
    for (int c = 0; c < m; ++c) {
      std::vector<SatLit> clause;
      // Width 0 (empty clause => UNSAT) through wide; duplicate literals
      // and var/negation collisions (tautologies) arise naturally.
      const int width = static_cast<int>(rng.Below(7));
      for (int k = 0; k < width; ++k) {
        clause.push_back(
            MakeLit(static_cast<int>(rng.Below(n)), rng.Chance(0.5)));
      }
      if (rng.Chance(0.05)) {
        // Out-of-range literal: the solver must reject the whole clause
        // with InvalidArgument and stay usable.
        std::vector<SatLit> bad = clause;
        bad.push_back(PosLit(n + static_cast<int>(rng.Below(3))));
        EXPECT_EQ(solver.AddClause(bad).code(), StatusCode::kInvalidArgument);
      }
      ASSERT_TRUE(solver.AddClause(clause).ok());
      clauses.push_back(std::move(clause));
    }
    const SatResult result = solver.Solve();
    ASSERT_NE(result, SatResult::kUnknown);
    ASSERT_EQ(result == SatResult::kSat,
              testing_util::BruteForceSat(n, clauses))
        << "round " << round;
    if (result == SatResult::kSat) {
      for (const auto& clause : clauses) {
        bool sat = clause.empty();
        for (SatLit lit : clause) {
          if (solver.ModelValue(LitVar(lit)) != LitIsNeg(lit)) sat = true;
        }
        EXPECT_TRUE(sat || clause.empty()) << "round " << round;
      }
    }
  }
}

TEST(SatSolverFuzzTest, IncrementalInterleavingsNeverCrash) {
  Rng rng(0xF02A);
  for (int round = 0; round < 200; ++round) {
    SatSolver solver;
    const int n = 2 + static_cast<int>(rng.Below(10));
    std::vector<int32_t> vars;
    for (int v = 0; v < n; ++v) vars.push_back(solver.NewVar());
    // BlockModel's precondition is that the *most recent Solve* returned
    // kSat; AddClause and BlockModel calls in between do not reset it.
    bool last_solve_sat = false;
    for (int op = 0; op < 40; ++op) {
      switch (rng.Below(4)) {
        case 0: {  // add a random clause (may be empty => UNSAT from there)
          std::vector<SatLit> clause;
          const int width = static_cast<int>(rng.Below(4));
          for (int k = 0; k < width; ++k) {
            clause.push_back(
                MakeLit(static_cast<int>(rng.Below(n)), rng.Chance(0.5)));
          }
          ASSERT_TRUE(solver.AddClause(std::move(clause)).ok());
          break;
        }
        case 1: {  // solve
          const SatResult result = solver.Solve();
          ASSERT_NE(result, SatResult::kUnknown);
          last_solve_sat = result == SatResult::kSat;
          break;
        }
        case 2: {  // block the last model over a random var subset
          std::vector<int32_t> subset;
          for (int32_t v : vars) {
            if (rng.Chance(0.6)) subset.push_back(v);
          }
          const Status status = solver.BlockModel(subset);
          if (last_solve_sat) {
            EXPECT_TRUE(status.ok());
          } else {
            EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
          }
          break;
        }
        default: {  // query stats — always safe
          (void)solver.num_conflicts();
          (void)solver.num_learnt();
          (void)solver.arena_bytes();
          break;
        }
      }
    }
    // Whatever the interleaving did, a final Solve must still terminate
    // with a definite answer.
    ASSERT_NE(solver.Solve(), SatResult::kUnknown);
  }
}

// ---------------------------------------------------------------------------
// Magic-set transform under random programs: for every valid (predicate,
// adornment) input the transform must succeed and uphold its invariants —
// both programs Validate, the demand program is stratified and safe — and
// for every invalid input it must return INVALID_ARGUMENT, never crash.
// ---------------------------------------------------------------------------

TEST(MagicSetFuzzTest, RandomProgramsUpholdTransformInvariants) {
  Rng rng(0xF02B);
  for (int round = 0; round < 200; ++round) {
    RandomProgramOptions options;
    options.num_idb = 1 + static_cast<int32_t>(rng.Below(5));
    options.num_edb = 1 + static_cast<int32_t>(rng.Below(3));
    options.num_rules = 1 + static_cast<int32_t>(rng.Below(12));
    options.negation_probability = 0.1 * static_cast<double>(rng.Below(8));
    options.arity = static_cast<int32_t>(rng.Below(3));
    Program program = RandomProgram(&rng, options);
    for (PredId p = 0; p < program.num_predicates(); ++p) {
      const int32_t arity = program.predicate(p).arity;
      std::string adornment(arity, 'f');
      for (int32_t i = 0; i < arity; ++i) {
        if (rng.Chance(0.5)) adornment[i] = 'b';
      }
      Result<DemandTransform> t = MagicSetTransform(program, p, adornment);
      if (program.IsEdb(p)) {
        EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      EXPECT_TRUE(t->demand.Validate().ok());
      EXPECT_TRUE(t->guarded.Validate().ok());
      EXPECT_TRUE(IsStratified(t->demand));
      EXPECT_TRUE(CheckSafety(t->demand).ok());
      // Adornment lengths match arities wherever a magic predicate exists.
      for (PredId q = 0; q < program.num_predicates(); ++q) {
        if (t->magic[q] < 0) continue;
        EXPECT_EQ(static_cast<int32_t>(t->adornments[q].size()),
                  program.predicate(q).arity);
      }
      // Malformed adornments on the same predicate are a clean rejection.
      EXPECT_EQ(
          MagicSetTransform(program, p, adornment + "b").status().code(),
          StatusCode::kInvalidArgument);
    }
  }
}

TEST(MagicSetFuzzTest, MutatedProgramsSurviveThePlanner) {
  const std::string base =
      "win(X) :- move(X, Y), not win(Y).\n"
      "t(X, Y) :- move(X, Y).\nt(X, Z) :- move(X, Y), t(Y, Z).\n";
  Rng rng(0xF02C);
  for (int round = 0; round < 150; ++round) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.Below(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Below(mutated.size());
      switch (rng.Below(3)) {
        case 0:
          mutated.erase(pos, 1);
          break;
        case 1:
          mutated.insert(pos, 1, "XYtw(),.!"[rng.Below(9)]);
          break;
        default:
          mutated[pos] = "XYtw(),.!"[rng.Below(9)];
          break;
      }
    }
    Result<Program> program = ParseProgram(mutated);
    if (!program.ok()) continue;
    Database database(*program);
    QueryPlanner planner(*program, database);
    // Random pattern text against whatever parsed: every response is a
    // QueryResult or a structured Status, regardless of mode.
    const std::string patterns[] = {"win(X)", "win(a)", "t(X, Y)", "t(a, b)",
                                    "move(X, Y)", "zz(", ""};
    for (const std::string& pattern : patterns) {
      for (const QueryMode mode : {QueryMode::kDemand,
                                   QueryMode::kFullGround}) {
        QueryOptions options;
        options.mode = mode;
        Result<QueryResult> result = planner.Execute(pattern, options);
        if (!result.ok()) {
          EXPECT_FALSE(result.status().message().empty());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CHECK macros abort with a readable message.
// ---------------------------------------------------------------------------

TEST(CheckDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ TIEBREAK_CHECK(1 == 2) << "impossible"; },
               "CHECK failed.*1 == 2.*impossible");
}

TEST(CheckDeathTest, ComparisonMacros) {
  EXPECT_DEATH({ TIEBREAK_CHECK_EQ(3, 4); }, "CHECK failed");
  EXPECT_DEATH({ TIEBREAK_CHECK_LT(5, 5); }, "CHECK failed");
}

TEST(CheckDeathTest, ResultValueOnErrorAborts) {
  Result<int> error(Status::NotFound("gone"));
  EXPECT_DEATH({ (void)error.value(); }, "NOT_FOUND");
}

}  // namespace
}  // namespace tiebreak
