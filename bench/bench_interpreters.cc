// EXP-WF — Section 2/3: the close() procedure and all three interpreters
// run in polynomial (near-linear here) time in the ground graph. Measures
// close-only resolution (win-move chains resolve fully during the initial
// close), the well-founded interpreter, and both tie-breaking interpreters
// on random boards with draw cycles, plus two giant ties: an even negation
// ring and a million-node win/move cycle, each one tie spanning the whole
// graph. On win/move boards every ground rule's body is one negative atom,
// so G+ has no edge and every unfounded set is empty; one random board with
// positive rules makes the well-founded interpreter falsify unfounded sets.
//
// Standalone harness in the BENCH_engine.json style (shared scaffolding in
// bench_util.h): emits BENCH_interpreters.json with per-workload wall
// time, ground-graph nodes (atoms + ground rules) resolved per run,
// nodes/sec, and the recorded baseline so every PR can show its perf
// delta.
//
// Usage: bench_interpreters [output.json] (default BENCH_interpreters.json);
// any flag is rejected with exit status 1.
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "lang/database.h"
#include "lang/parser.h"
#include "util/function_view.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// Recorded nodes/sec, so the speedup column reports a delta: the medians
// of five runs of this harness built against the library at commit
// 6c93b9b, before CloseState kept one record per rule node and per atom (a
// source bit, and per-atom source counts), run interleaved with five runs
// of the current one on the same 4-core VM.
constexpr benchutil::BaselineEntry kBaseline[] = {
    {"close_winmove_chain_8192", 111814086.8},
    {"wf_winmove_random_4096", 50854795.1},
    {"wftb_winmove_random_4096", 41581435.6},
    {"puretb_winmove_random_4096", 47173162.6},
    {"wftb_negation_ring_1024", 29493937.0},
    {"close_winmove_random_400k", 18756905.3},
    {"wf_winmove_random_400k", 18555794.6},
    {"wf_positive_loops_random_200k", 18764998.2},
    {"wftb_winmove_cycle_512k", 21951440.2},
};

struct Board {
  Program program;
  Database database;
  GroundingResult ground;
};

Board MakeChainBoard(int n) {
  Program program = WinMoveProgram();
  Database database = *ChainDatabase(&program, "move", n);
  GroundingResult ground = Ground(program, database).value();
  return Board{std::move(program), std::move(database), std::move(ground)};
}

Board MakeRandomBoard(int n, uint64_t seed) {
  Program program = WinMoveProgram();
  Rng rng(seed);
  Database database = *RandomDigraphDatabase(&program, "move", n, 2 * n, &rng);
  GroundingResult ground = Ground(program, database).value();
  return Board{std::move(program), std::move(database), std::move(ground)};
}

// A million-node board: ~n win atoms + ~2n ground rules, with the random
// digraph's many nontrivial SCCs driving the wave schedule. Bulk-loaded
// EDB so board construction does not dominate the harness.
Board MakeLargeRandomBoard(int n, uint64_t seed) {
  Program program = WinMoveProgram();
  Rng rng(seed);
  Database database =
      *LargeRandomDigraphDatabase(&program, "move", n, 2 * n, &rng);
  GroundingResult ground = Ground(program, database).value();
  return Board{std::move(program), std::move(database), std::move(ground)};
}

// a(X) :- e(X, Y), a(Y).  a(X) :- f(X, Y), not a(Y).  on n nodes, over
// random e (n/2 edges, plus n/4 mutual pairs X -> Y -> X) and random f (n/2
// edges). The positive rule gives G+ its edges, and the mutual pairs close
// positive loops whose f rules the close kills, so the well-founded
// interpreter falsifies unfounded sets, over several rounds, through
// LargestUnfoundedSet's simulation path.
Board MakePositiveLoopBoard(int n, uint64_t seed) {
  Program program =
      ParseProgram("a(X) :- e(X, Y), a(Y).\na(X) :- f(X, Y), not a(Y).")
          .value();
  std::vector<ConstId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(program.InternConstant("n" + std::to_string(i)));
  }
  Rng rng(seed);
  std::vector<ConstId> e;
  std::vector<ConstId> f;
  const auto draw = [&](std::vector<ConstId>* rows, bool mutual) {
    const ConstId x = nodes[rng.Below(n)];
    const ConstId y = nodes[rng.Below(n)];
    rows->insert(rows->end(), {x, y});
    if (mutual) rows->insert(rows->end(), {y, x});
  };
  for (int i = 0; i < n / 2; ++i) draw(&e, false);
  for (int i = 0; i < n / 4; ++i) draw(&e, true);
  for (int i = 0; i < n / 2; ++i) draw(&f, false);
  Database database(program);
  database.BulkLoadFlat(program.LookupPredicate("e"), std::move(e));
  database.BulkLoadFlat(program.LookupPredicate("f"), std::move(f));
  GroundingResult ground = Ground(program, database).value();
  return Board{std::move(program), std::move(database), std::move(ground)};
}

benchutil::Row Measure(const std::string& name, const Board& board,
                       FunctionView<void(const Board&)> run, int reps) {
  benchutil::Row out;
  out.name = name;
  out.items = static_cast<int64_t>(board.ground.graph.num_atoms()) +
              board.ground.graph.num_rules();
  run(board);  // warm-up
  out.seconds = benchutil::BestOfReps(reps, [&]() -> double {
    WallTimer timer;
    run(board);
    return timer.Seconds();
  });
  out.items_per_sec =
      out.seconds > 0 ? static_cast<double>(out.items) / out.seconds : 0;
  return out;
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_interpreters.json";
  if (!benchutil::ParseJsonPathOnly(argc, argv, &json_path)) return 1;
  std::vector<benchutil::Row> results;

  {
    const Board board = MakeChainBoard(8192);
    results.push_back(Measure("close_winmove_chain_8192", board,
                              [](const Board& b) {
                                CloseState close(b.program, b.database,
                                                 b.ground.graph);
                                TIEBREAK_CHECK(close.IsTotal());
                              },
                              3));
  }
  {
    const Board board = MakeRandomBoard(4096, 17);
    results.push_back(Measure(
        "wf_winmove_random_4096", board,
        [](const Board& b) {
          WellFounded(b.program, b.database, b.ground.graph);
        },
        3));
    results.push_back(Measure(
        "wftb_winmove_random_4096", board,
        [](const Board& b) {
          TieBreaking(b.program, b.database, b.ground.graph,
                      TieBreakingMode::kWellFounded);
        },
        3));
    results.push_back(Measure(
        "puretb_winmove_random_4096", board,
        [](const Board& b) {
          TieBreaking(b.program, b.database, b.ground.graph,
                      TieBreakingMode::kPure);
        },
        3));
  }
  {
    // Million-node multi-SCC workloads for the serial close and
    // well-founded interpreter.
    const Board board = MakeLargeRandomBoard(400000, 23);
    results.push_back(Measure("close_winmove_random_400k", board,
                              [](const Board& b) {
                                CloseState close(b.program, b.database,
                                                 b.ground.graph);
                                TIEBREAK_CHECK(!close.IsTotal());
                              },
                              3));
    results.push_back(Measure(
        "wf_winmove_random_400k", board,
        [](const Board& b) {
          WellFounded(b.program, b.database, b.ground.graph);
        },
        3));
  }
  {
    const Board board = MakePositiveLoopBoard(200000, 29);
    results.push_back(Measure(
        "wf_positive_loops_random_200k", board,
        [](const Board& b) {
          const InterpreterResult result =
              WellFounded(b.program, b.database, b.ground.graph);
          TIEBREAK_CHECK_GE(result.unfounded_rounds, 1);
        },
        3));
  }
  {
    Program program = NegationRingProgram(1024);
    Database database(program);
    GroundingResult ground = Ground(program, database).value();
    Board board{std::move(program), std::move(database), std::move(ground)};
    results.push_back(Measure(
        "wftb_negation_ring_1024", board,
        [](const Board& b) {
          const InterpreterResult result =
              TieBreaking(b.program, b.database, b.ground.graph,
                          TieBreakingMode::kWellFounded);
          TIEBREAK_CHECK(result.total);
        },
        3));
  }

  {
    // One bottom tie spanning an even 2^19-position cycle: 524,288 win
    // atoms and as many ground rules, all live when the tie pass runs, so
    // the row is dominated by the tie pass and the close that follows.
    Program program = WinMoveProgram();
    Database database = *CycleDatabase(&program, "move", 1 << 19);
    GroundingResult ground = Ground(program, database).value();
    Board board{std::move(program), std::move(database), std::move(ground)};
    results.push_back(Measure(
        "wftb_winmove_cycle_512k", board,
        [](const Board& b) {
          const InterpreterResult result =
              TieBreaking(b.program, b.database, b.ground.graph,
                          TieBreakingMode::kWellFounded);
          TIEBREAK_CHECK(result.total);
          TIEBREAK_CHECK_EQ(result.ties_broken, 1);
        },
        3));
  }

  benchutil::PrintTable(results, kBaseline, "nodes");
  benchutil::WriteJson(json_path, results, kBaseline, "nodes",
                       "nodes_per_sec");
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
