// EXP-SAT — the CDCL core under its real workloads, scaled 10-100x over the
// reduction harnesses' instance sizes: completion -> fixpoint/stable
// enumeration on win-move boards, the Theorem 2/3/6 UNSAT witness families,
// QBF-reduction groundings, and two direct CNF families (pigeonhole,
// near-threshold random 3-SAT) that isolate the solver from the encoder.
//
// Standalone harness in the BENCH_engine.json style: emits BENCH_sat.json
// with per-workload wall time (BestOfReps), conflicts, propagations,
// conflicts/sec, propagations/sec, the solver observability counters
// (restarts, learnt, reduced, arena bytes) and a recorded baseline, so
// each row shows its wall-clock speedup.
//
// Every workload is deterministic (fixed Rng seeds) and self-validating:
// model counts and SAT/UNSAT answers are CHECKed, so the harness doubles as
// an end-to-end agreement test between solver generations.
//
// Usage: bench_sat [output.json] (default BENCH_sat.json); any flag is
// rejected with exit status 1.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/completion.h"
#include "core/stable.h"
#include "core/witness.h"
#include "ground/grounder.h"
#include "lang/database.h"
#include "reductions/cm_reduction.h"
#include "reductions/counter_machine.h"
#include "reductions/qbf.h"
#include "reductions/qbf_reduction.h"
#include "sat/solver.h"
#include "util/function_view.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// Recorded wall seconds, measured with this harness.
// speedup = baseline_seconds / seconds.
//   - Completion rows (everything built on FixpointSearch): the full
//     completion encoder (every atom, one auxiliary variable per rule
//     instance, blocking on every atom) that the Kripke–Kleene residue
//     encoding replaced; median of three runs interleaved with the new
//     encoder's on a 4-core Xeon VM.
//   - Direct CNF rows: the seed CDCL solver (one heap vector per clause,
//     no blocking literals, no learnt-clause minimization or deletion,
//     geometric restarts), measured before the arena rewrite.
struct SatBaseline {
  const char* name;
  double seconds;
};
constexpr SatBaseline kBaseline[] = {
    {"fixpoint_enum_pairs_s120", 0.046743},
    {"fixpoint_enum_pairs_s360", 0.162759},
    {"stable_enum_pairs_s200", 0.092997},
    {"stable_enum_winmove_n2000", 0.005500},
    {"thm2_unary_ring_k20001", 0.015880},
    {"thm3_binary_batch100", 0.001325},
    {"thm6_uniform_counting_k4", 0.131453},
    {"qbf_enum_x8_y40", 0.014881},
    {"php_9_8", 0.651146},
    {"rand3sat_n170_m731", 0.100115},
    {"blocked_enum_rand3sat_n60", 0.012702},
};

double BaselineSeconds(const std::string& name) {
  for (const SatBaseline& entry : kBaseline) {
    if (name == entry.name) return entry.seconds;
  }
  return 0.0;
}

// The QBF row's expected model count: satisfying (q=false) completions of
// the grounded ∀∃ instance below, validated against the seed solver.
constexpr int64_t kQbfExpectedModels = 964;

// One measured workload: wall time plus the solver's own counters for the
// last repetition (counts are deterministic, so "last" is any).
struct SatRow {
  std::string name;
  double seconds = 0;
  int64_t conflicts = 0;
  int64_t propagations = 0;
  int64_t restarts = 0;
  int64_t learnt = 0;
  int64_t reduced = 0;
  int64_t arena_bytes = 0;
};

// Copies the observability counters out of a solver.
void Collect(const SatSolver& solver, SatRow* row) {
  row->conflicts = solver.num_conflicts();
  row->propagations = solver.num_propagations();
  row->restarts = solver.num_restarts();
  row->learnt = solver.num_learnt();
  row->reduced = solver.num_reduced();
  row->arena_bytes = solver.arena_bytes();
}

// Accumulates counters across a batch of solvers into one row.
void Accumulate(const SatSolver& solver, SatRow* row) {
  row->conflicts += solver.num_conflicts();
  row->propagations += solver.num_propagations();
  row->restarts += solver.num_restarts();
  row->learnt += solver.num_learnt();
  row->reduced += solver.num_reduced();
  row->arena_bytes += solver.arena_bytes();
}

// Runs `rep` (one full repetition: build solver state + search) `reps`
// times; keeps the best wall time and the last repetition's counters.
SatRow Measure(const std::string& name, int reps,
               FunctionView<void(SatRow*)> rep) {
  SatRow row;
  row.name = name;
  rep(&row);  // warm-up (also validates the workload's CHECKs once)
  row.seconds = benchutil::BestOfReps(reps, [&]() -> double {
    row.conflicts = row.propagations = row.restarts = 0;
    row.learnt = row.reduced = row.arena_bytes = 0;
    WallTimer timer;
    rep(&row);
    return timer.Seconds();
  });
  return row;
}

struct Board {
  Program program;
  Database database;
  GroundingResult ground;
};

// A "pairs" win-move board: s disjoint 2-cycles a_i <-> b_i. Every pair
// contributes an independent binary choice (win(a_i) xor win(b_i)), so the
// completion has 2^s models and every one of them is stable — the bulk
// model-enumeration workload that random digraphs cannot provide, because a
// random digraph almost surely has an odd win cycle (UNSAT completion).
Board MakePairsBoard(int pairs) {
  Program program = WinMoveProgram();
  const PredId move = program.DeclarePredicate("move", 2);
  Database database(program);
  for (int i = 0; i < pairs; ++i) {
    char name_a[16];
    char name_b[16];
    std::snprintf(name_a, sizeof(name_a), "a%d", i);
    std::snprintf(name_b, sizeof(name_b), "b%d", i);
    const ConstId a = program.InternConstant(name_a);
    const ConstId b = program.InternConstant(name_b);
    database.Insert(move, Tuple{a, b});
    database.Insert(move, Tuple{b, a});
  }
  GroundingResult ground = Ground(program, database).value();
  return Board{std::move(program), std::move(database), std::move(ground)};
}

// A ∀∃-CNF whose clauses all have width 3 and mix a few universal literals
// into mostly-existential clauses: wide enough to defeat pure unit
// propagation, so the grounded completion actually exercises the search.
// (RandomForAllExistsCnf's width-1/2 clauses make propagation-trivial
// groundings.)
ForAllExistsCnf MakeHardQbf(int num_x, int num_y, int num_clauses,
                            uint64_t seed) {
  Rng rng(seed);
  ForAllExistsCnf formula;
  formula.num_x = num_x;
  formula.num_y = num_y;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<QbfLiteral> clause;
    std::vector<int> used;
    while (static_cast<int>(clause.size()) < 3) {
      QbfLiteral lit;
      lit.is_x = rng.Chance(0.15);
      lit.index = static_cast<int32_t>(rng.Below(lit.is_x ? num_x : num_y));
      lit.negated = rng.Chance(0.5);
      const int key = (lit.is_x ? 1000 : 0) + lit.index;
      bool fresh = true;
      for (int u : used) {
        if (u == key) fresh = false;
      }
      if (fresh) {
        used.push_back(key);
        clause.push_back(lit);
      }
    }
    formula.clauses.push_back(std::move(clause));
  }
  return formula;
}

// Direct CNF helpers ------------------------------------------------------

void AddPigeonhole(SatSolver* solver, int pigeons, int holes) {
  std::vector<std::vector<int32_t>> var(pigeons, std::vector<int32_t>(holes));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) var[p][h] = solver->NewVar();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<SatLit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(PosLit(var[p][h]));
    TIEBREAK_CHECK(solver->AddClause(clause).ok());
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        TIEBREAK_CHECK(
            solver->AddClause({NegLit(var[p1][h]), NegLit(var[p2][h])}).ok());
      }
    }
  }
}

void AddRandom3Sat(SatSolver* solver, int n, int m, uint64_t seed) {
  Rng rng(seed);
  for (int v = 0; v < n; ++v) solver->NewVar();
  for (int c = 0; c < m; ++c) {
    std::vector<SatLit> clause;
    while (clause.size() < 3) {
      const SatLit lit =
          MakeLit(static_cast<int32_t>(rng.Below(n)), rng.Chance(0.5));
      bool fresh = true;
      for (SatLit seen : clause) {
        if (LitVar(seen) == LitVar(lit)) fresh = false;
      }
      if (fresh) clause.push_back(lit);
    }
    TIEBREAK_CHECK(solver->AddClause(clause).ok());
  }
}

// Workloads ---------------------------------------------------------------

// Completion -> fixpoint enumeration on pairs boards (the stable-model
// front end's inner loop): many models, long blocking clauses.
SatRow FixpointCountRow(const char* name, int pairs, int64_t limit,
                        int64_t expected, int reps) {
  const Board board = MakePairsBoard(pairs);
  return Measure(name, reps, [&](SatRow* row) {
    FixpointSearch search(board.program, board.database, board.ground.graph);
    const int64_t count = search.Count(limit);
    TIEBREAK_CHECK_EQ(count, expected);
    Collect(search.solver(), row);
  });
}

// A Theorem-2/6 style UNSAT witness: the completion must have no model.
SatRow UnsatWitnessRow(const char* name, const Program& program,
                       const Database& database, const GroundGraph& graph,
                       int reps) {
  return Measure(name, reps, [&](SatRow* row) {
    FixpointSearch search(program, database, graph);
    TIEBREAK_CHECK(!search.HasFixpoint());
    Collect(search.solver(), row);
  });
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_sat.json";
  if (!benchutil::ParseJsonPathOnly(argc, argv, &json_path)) return 1;
  std::vector<SatRow> results;

  // Completion -> model enumeration, 10-60x the 12-node boards the
  // comparison harness uses (2^s models, so enumeration never runs dry).
  results.push_back(FixpointCountRow("fixpoint_enum_pairs_s120", 120,
                                     /*limit=*/1000, /*expected=*/1000, 5));
  results.push_back(FixpointCountRow("fixpoint_enum_pairs_s360", 360,
                                     /*limit=*/1000, /*expected=*/1000, 3));

  {
    // Stable enumeration: fixpoint candidates filtered through the
    // stability check, exactly as EnumerateStableModels does. On a pairs
    // board every fixpoint is stable.
    const Board board = MakePairsBoard(200);
    results.push_back(Measure("stable_enum_pairs_s200", 3, [&](SatRow* row) {
      FixpointSearch search(board.program, board.database,
                            board.ground.graph);
      int64_t stable = 0;
      for (int64_t inspected = 0; inspected < 1000; ++inspected) {
        std::optional<std::vector<Truth>> model = search.Next();
        if (!model.has_value()) break;
        if (IsStable(board.program, board.database, board.ground.graph,
                     *model)) {
          ++stable;
        }
      }
      TIEBREAK_CHECK_EQ(stable, 1000);
      Collect(search.solver(), row);
    }));
  }

  {
    // Stable enumeration on win/move over a seeded 2000-position random
    // digraph. The Kripke–Kleene close decides all but 124 atoms; the
    // residue has 8 fixpoints, every one of them stable. (Random digraphs
    // this dense mostly have an odd win cycle in the residue, hence the
    // chosen seed.)
    Program program = WinMoveProgram();
    Rng rng(95);
    Database database =
        RandomDigraphDatabase(&program, "move", 2000, 4500, &rng).value();
    GroundingResult ground = Ground(program, database).value();
    const Board board{std::move(program), std::move(database),
                      std::move(ground)};
    results.push_back(
        Measure("stable_enum_winmove_n2000", 10, [&](SatRow* row) {
          FixpointSearch search(board.program, board.database,
                                board.ground.graph);
          int64_t fixpoints = 0;
          int64_t stable = 0;
          while (std::optional<std::vector<Truth>> model = search.Next()) {
            ++fixpoints;
            if (IsStable(board.program, board.database, board.ground.graph,
                         *model)) {
              ++stable;
            }
          }
          TIEBREAK_CHECK_EQ(fixpoints, 8);
          TIEBREAK_CHECK_EQ(stable, 8);
          Collect(search.solver(), row);
        }));
  }

  {
    // Theorem 2: the unary alphabetic-variant witness of a size-20001
    // negation ring (the theorem harness uses k=3..5; even k has no odd
    // cycle, hence the odd size) has no fixpoint.
    const Program ring = NegationRingProgram(20001);
    const WitnessInstance witness = BuildTheorem2UnaryWitness(ring).value();
    const GroundingResult ground =
        Ground(witness.program, witness.database).value();
    results.push_back(UnsatWitnessRow("thm2_unary_ring_k20001",
                                      witness.program, witness.database,
                                      ground.graph, 5));
  }
  {
    // Theorem 3: a batch of 100 binary witnesses (empty IDB) of random
    // programs whose reduced graphs have odd cycles. Individually tiny, so
    // the row measures encode+solve throughput over the whole batch.
    Rng rng(0x7353ED);
    std::vector<WitnessInstance> witnesses;
    std::vector<GroundingResult> grounds;
    while (witnesses.size() < 100) {
      RandomProgramOptions options;
      options.num_idb = 5;
      options.num_edb = 2;
      options.num_rules = 9;
      options.negation_probability = 0.5;
      const Program program = RandomProgram(&rng, options);
      Result<WitnessInstance> witness = BuildTheorem3BinaryWitness(program);
      if (!witness.ok()) continue;
      grounds.push_back(Ground(witness->program, witness->database).value());
      witnesses.push_back(std::move(witness).value());
    }
    results.push_back(Measure("thm3_binary_batch100", 10, [&](SatRow* row) {
      for (size_t i = 0; i < witnesses.size(); ++i) {
        FixpointSearch search(witnesses[i].program, witnesses[i].database,
                              grounds[i].graph);
        TIEBREAK_CHECK(!search.HasFixpoint());
        Accumulate(search.solver(), row);
      }
    }));
  }
  {
    // Theorem 6: the uniform totality transform of the k=4 counting machine
    // over its natural database well beyond the halting time — no fixpoint.
    // Twice the minimal universe makes the UNSAT certificate 2x deeper than
    // the theorem harness's instances (~225k ground rules).
    const CounterMachine machine = MakeCountingMachine(4);
    const auto run = machine.Run(400);
    CmReduction reduction = CounterMachineToProgram(machine);
    const int32_t t =
        2 * (static_cast<int32_t>(run.steps) + machine.num_states() + 1);
    const Database natural = NaturalDatabase(&reduction, t).value();
    const Program uniform = UniformTotalityTransform(reduction.program);
    Database database(uniform);
    for (PredId p = 0; p < reduction.program.num_predicates(); ++p) {
      for (const Tuple& tuple : natural.Tuples(p)) database.Insert(p, tuple);
    }
    const GroundingResult ground = Ground(uniform, database).value();
    results.push_back(UnsatWitnessRow("thm6_uniform_counting_k4", uniform,
                                      database, ground.graph, 3));
  }
  {
    // QBF reduction: fixpoint enumeration over a grounded ∀∃-CNF program
    // with one universal assignment pinned via the X EDB facts. The
    // fixpoints are exactly the satisfying existential assignments.
    const ForAllExistsCnf formula = MakeHardQbf(8, 40, 170, /*seed=*/9);
    const Program program = QbfToProgram(formula).value();
    Database database(program);
    for (int32_t i = 0; i < formula.num_x; i += 2) {
      char x_name[16];
      std::snprintf(x_name, sizeof(x_name), "x%d", i);
      const PredId x = program.LookupPredicate(x_name);
      TIEBREAK_CHECK_GE(x, 0);
      database.InsertProposition(x);
    }
    GroundingResult ground = Ground(program, database).value();
    const Board board{program, std::move(database), std::move(ground)};
    results.push_back(Measure("qbf_enum_x8_y40", 5, [&](SatRow* row) {
      FixpointSearch search(board.program, board.database,
                            board.ground.graph);
      const int64_t count = search.Count(2000);
      TIEBREAK_CHECK_EQ(count, kQbfExpectedModels);
      Collect(search.solver(), row);
    }));
  }

  // Direct CNF rows: the solver without the encoder in front of it.
  results.push_back(Measure("php_9_8", 3, [&](SatRow* row) {
    SatSolver solver;
    AddPigeonhole(&solver, 9, 8);
    TIEBREAK_CHECK(solver.Solve() == SatResult::kUnsat);
    Collect(solver, row);
  }));
  results.push_back(Measure("rand3sat_n170_m731", 3, [&](SatRow* row) {
    SatSolver solver;
    AddRandom3Sat(&solver, 170, 731, 0x3547);
    TIEBREAK_CHECK(solver.Solve() == SatResult::kUnsat);
    Collect(solver, row);
  }));
  results.push_back(Measure("blocked_enum_rand3sat_n60", 5, [&](SatRow* row) {
    SatSolver solver;
    AddRandom3Sat(&solver, 60, 150, 0x60150);
    std::vector<int32_t> all_vars;
    for (int32_t v = 0; v < 60; ++v) all_vars.push_back(v);
    int64_t models = 0;
    while (models < 1500 && solver.Solve() == SatResult::kSat) {
      ++models;
      TIEBREAK_CHECK(solver.BlockModel(all_vars).ok());
    }
    TIEBREAK_CHECK_EQ(models, 1500);
    Collect(solver, row);
  }));

  // Table + JSON (custom schema: two rate columns plus the solver
  // counters, so bench_util's single-rate Row does not fit).
  std::printf("%-28s %10s %10s %12s %12s %9s %8s %8s %9s %8s\n", "workload",
              "seconds", "conflicts", "confl/sec", "props/sec", "restarts",
              "learnt", "reduced", "arena_mb", "speedup");
  for (const SatRow& r : results) {
    const double baseline = BaselineSeconds(r.name);
    const double speedup = baseline > 0 ? baseline / r.seconds : 0;
    std::printf(
        "%-28s %10.6f %10lld %12.0f %12.0f %9lld %8lld %8lld %9.2f %8s\n",
        r.name.c_str(), r.seconds, static_cast<long long>(r.conflicts),
        r.seconds > 0 ? static_cast<double>(r.conflicts) / r.seconds : 0,
        r.seconds > 0 ? static_cast<double>(r.propagations) / r.seconds : 0,
        static_cast<long long>(r.restarts), static_cast<long long>(r.learnt),
        static_cast<long long>(r.reduced),
        static_cast<double>(r.arena_bytes) / (1024.0 * 1024.0),
        benchutil::SpeedupLabel(speedup).c_str());
  }

  FILE* json = std::fopen(json_path.c_str(), "w");
  TIEBREAK_CHECK(json != nullptr) << "cannot open " << json_path;
  std::fprintf(json, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SatRow& r = results[i];
    const double baseline = BaselineSeconds(r.name);
    const double speedup = baseline > 0 ? baseline / r.seconds : 0;
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"seconds\": %.6f, \"conflicts\": %lld, "
        "\"propagations\": %lld, \"conflicts_per_sec\": %.1f, "
        "\"propagations_per_sec\": %.1f, \"restarts\": %lld, "
        "\"learnt\": %lld, \"reduced\": %lld, \"arena_bytes\": %lld, "
        "\"baseline_seconds\": %.6f, \"speedup\": %.3f}%s\n",
        r.name.c_str(), r.seconds, static_cast<long long>(r.conflicts),
        static_cast<long long>(r.propagations),
        r.seconds > 0 ? static_cast<double>(r.conflicts) / r.seconds : 0,
        r.seconds > 0 ? static_cast<double>(r.propagations) / r.seconds : 0,
        static_cast<long long>(r.restarts), static_cast<long long>(r.learnt),
        static_cast<long long>(r.reduced),
        static_cast<long long>(r.arena_bytes), baseline, speedup,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
