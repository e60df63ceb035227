// EXP-WF — Section 2/3: the close() procedure and all three interpreters
// run in polynomial (near-linear here) time in the ground graph. Measures
// close-only resolution (win-move chains resolve fully during the initial
// close), the well-founded interpreter, and both tie-breaking interpreters
// on random boards with draw cycles, plus a giant even negation ring (one
// tie spanning the whole graph).
//
// Standalone harness in the BENCH_engine.json style (shared scaffolding in
// bench_util.h): emits BENCH_interpreters.json with per-workload wall
// time, ground-graph nodes (atoms + ground rules) resolved per run,
// nodes/sec, and the recorded baseline so every PR can show its perf
// delta.
//
// Usage: bench_interpreters [output.json] (default BENCH_interpreters.json)
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "lang/database.h"
#include "util/function_view.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// Recorded nodes/sec measured on this container before the SCC-scheduler
// PR, so the speedup column reports its delta. The headline entry is
// wftb_negation_ring_1024: the old FindBottomTies materialized a LiveGraph
// (nodes, edges, id maps) every interpreter round and ran the generic
// Digraph Tarjan plus an unordered_map-based tie BFS over it, which capped
// WFTB at ~9.5M nodes/sec against close's ~78M — the CSR-direct SCC/tie
// passes (ground/ground_scc.h) remove the per-round materialization. The
// *_400k entries are new at this PR (million-node multi-SCC boards, serial
// reference baselines recorded below after first measurement).
constexpr benchutil::BaselineEntry kBaseline[] = {
    {"close_winmove_chain_8192", 77702366.0},
    {"wf_winmove_random_4096", 45679737.0},
    {"wftb_winmove_random_4096", 37823412.0},
    {"puretb_winmove_random_4096", 41073968.0},
    {"wftb_negation_ring_1024", 9531034.0},
    {"close_winmove_random_400k", 18089736.0},
    {"wf_winmove_random_400k", 16489333.0},
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
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_interpreters.json";
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

  benchutil::PrintTable(results, kBaseline, "nodes");
  benchutil::WriteJson(json_path, results, kBaseline, "nodes",
                       "nodes_per_sec");
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
