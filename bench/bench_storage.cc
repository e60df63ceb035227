// EXP-SNAP — snapshot codec throughput: SerializeSnapshot and
// LoadSnapshotFromBuffer over the standard workloads, from the small
// win-move boards up to the Theorem 6 transfer-machine graph at t=64
// (~3.2M ground-graph nodes, a ~136MB snapshot). Items are snapshot
// bytes, so the rate column is codec bytes/sec; the load rows include
// the full hostile-input validation pass (header/table checks, payload
// CRCs, structural cross-checks, index rebuild) — that validation cost
// is exactly what this harness exists to keep honest.
//
// Next to them, the text way in: parse_winmove_1m reads a ~1M-edge
// random digraph, rendered as fact text, back through ParseProgram +
// ParseDatabase. Its items are text bytes, so it reads in the same
// bytes/sec column as the load rows.
//
// Standalone harness in the BENCH_engine.json style (shared scaffolding
// in bench_util.h): emits BENCH_storage.json.
//
// Usage: bench_storage [output.json] [--reps N]
//   --reps N      repetitions per workload (best-of; default 3)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ground/grounder.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "reductions/cm_reduction.h"
#include "reductions/counter_machine.h"
#include "storage/snapshot.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// The codec rows have no recorded baseline: the committed
// BENCH_storage.json is the reference for the next change to the codec.
// parse_winmove_1m's baseline is the token-vector parser's rate (median of
// five runs, interleaved with runs of the streaming parser; see
// docs/benchmarks.md).
constexpr benchutil::BaselineEntry kBaseline[] = {
    {"parse_winmove_1m", 10467464.0},
};

void MeasureCodec(const std::string& name, const Program& program,
                  const Database& database, const GroundGraph& graph,
                  int reps, std::vector<benchutil::Row>* rows) {
  Result<std::string> bytes =
      storage::SerializeSnapshot(program, &database, &graph);
  TIEBREAK_CHECK(bytes.ok()) << bytes.status().ToString();
  const int64_t size = static_cast<int64_t>(bytes->size());

  benchutil::Row save;
  save.name = "save_" + name;
  save.items = size;
  save.seconds = benchutil::BestOfReps(reps, [&] {
    WallTimer timer;
    Result<std::string> out =
        storage::SerializeSnapshot(program, &database, &graph);
    const double seconds = timer.Seconds();
    TIEBREAK_CHECK(out.ok());
    return seconds;
  });
  save.items_per_sec = size / save.seconds;
  rows->push_back(save);

  storage::SnapshotReadOptions read;
  read.program = &program;
  benchutil::Row load;
  load.name = "load_" + name;
  load.items = size;
  load.seconds = benchutil::BestOfReps(reps, [&] {
    WallTimer timer;
    Result<storage::SnapshotContents> in =
        storage::LoadSnapshotFromBuffer(*bytes, read);
    const double seconds = timer.Seconds();
    TIEBREAK_CHECK(in.ok()) << in.status().ToString();
    return seconds;
  });
  load.items_per_sec = size / load.seconds;
  rows->push_back(load);
}

void MeasureParse(const std::string& name, const Program& program,
                  const Database& database, int reps,
                  std::vector<benchutil::Row>* rows) {
  const std::string program_text = ProgramToString(program);
  const std::string facts = DatabaseToString(program, database);
  benchutil::Row parse;
  parse.name = "parse_" + name;
  parse.items = static_cast<int64_t>(program_text.size() + facts.size());
  parse.seconds = benchutil::BestOfReps(reps, [&] {
    WallTimer timer;
    Result<Program> parsed = ParseProgram(program_text);
    TIEBREAK_CHECK(parsed.ok()) << parsed.status().ToString();
    Result<Database> db = ParseDatabase(facts, &*parsed);
    const double seconds = timer.Seconds();
    TIEBREAK_CHECK(db.ok()) << db.status().ToString();
    TIEBREAK_CHECK_EQ(db->TotalFacts(), database.TotalFacts());
    return seconds;
  });
  parse.items_per_sec = parse.items / parse.seconds;
  rows->push_back(parse);
}

GroundGraph GroundGraphOf(const Program& program, const Database& database,
                          GroundingOptions options = {}) {
  Result<GroundingResult> g = Ground(program, database, options);
  TIEBREAK_CHECK(g.ok()) << g.status().ToString();
  return std::move(g->graph);
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_storage.json";
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (argv[i][0] != '-') {
      json_path = argv[i];
    }
  }

  std::vector<benchutil::Row> rows;
  {
    Program program = WinMoveProgram();
    Rng rng(1);
    Database db = *RandomDigraphDatabase(&program, "move", 4096, 8192, &rng);
    const GroundGraph graph = GroundGraphOf(program, db);
    MeasureCodec("winmove_4096", program, db, graph, reps, &rows);
  }
  {
    Rng rng(9);
    RandomProgramOptions options;
    options.arity = 1;
    options.num_rules = 10;
    Program program = RandomProgram(&rng, options);
    Database db = *RandomEdbDatabase(&program, 64, 0.4, &rng);
    const GroundGraph graph = GroundGraphOf(program, db);
    MeasureCodec("random_unary_64", program, db, graph, reps, &rows);
  }
  {
    const CounterMachine machine = MakeTransferMachine(3);
    CmReduction reduction = CounterMachineToProgram(machine);
    const Database db = NaturalDatabase(&reduction, 64).value();
    GroundingOptions options;
    options.max_instances = 50'000'000;
    const GroundGraph graph =
        GroundGraphOf(reduction.program, db, options);
    MeasureCodec("theorem6_transfer_t64", reduction.program, db, graph,
                 reps, &rows);
  }

  {
    Program program = WinMoveProgram();
    Rng rng(5);
    const Database db = *LargeRandomDigraphDatabase(&program, "move", 250'000,
                                                    1'000'000, &rng);
    MeasureParse("winmove_1m", program, db, reps, &rows);
  }

  benchutil::PrintTable(rows, kBaseline, "bytes");
  benchutil::WriteJson(json_path, rows, kBaseline, "bytes",
                       "bytes_per_sec");
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
