// Fault-injection sweep: run a governed workload once in counting mode to
// learn how many ExecutionContext checkpoints it executes, then replay it
// with cancellation injected at every checkpoint index, asserting at each
// index that the pipeline unwinds cleanly — no crash, a well-formed
// kCancelled Status (or a sound truncated partial result), and full
// agreement with a clean run afterwards. Run under ASan/UBSan by
// scripts/check.sh to catch unwind-path leaks and UB.
#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/completion.h"
#include "core/query_plan.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "util/execution_context.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// Outcome of one governed win-move run: either the pipeline errored (code
// holds the trip), or it produced values (possibly truncated).
struct WfOutcome {
  bool errored = false;
  StatusCode code = StatusCode::kOk;
  std::vector<Truth> values;
  Status truncation = Status::Ok();
  bool total = false;
};

// A random digraph board: `nodes` positions, `moves` moves.
struct Board {
  int32_t nodes = 192;
  int32_t moves = 576;
};

// Grounds win/move over a random digraph and runs the well-founded
// interpreter, all under `context`. Exercises the engine (grounding
// bindings), the grounder's emission, close and unfounded sets.
// `interpreter_threads` is passed through InterpreterOptions; the
// well-founded interpreter closes serially at any count, so the count must
// not change a model or the set of checkpoints.
WfOutcome RunWellFoundedPipeline(ExecutionContext* context,
                                 int32_t num_threads,
                                 int32_t interpreter_threads = 1,
                                 Board board = {}) {
  Program program = WinMoveProgram();
  Rng rng(7);
  Database database = *RandomDigraphDatabase(&program, "move", board.nodes,
                                             board.moves, &rng);
  GroundingOptions options;
  options.num_threads = num_threads;
  options.context = context;
  Result<GroundingResult> ground = Ground(program, database, options);
  WfOutcome outcome;
  if (!ground.ok()) {
    outcome.errored = true;
    outcome.code = ground.status().code();
    return outcome;
  }
  const InterpreterResult wf =
      WellFounded(program, database, ground->graph,
                  InterpreterOptions{interpreter_threads, context});
  // Values in atom-key order: a grounding on the pool numbers atoms in the
  // order its workers happened to emit them, so two runs compare entry by
  // entry only in an order that does not depend on the ids.
  const GroundAtomStore& atoms = ground->graph.atoms();
  const auto key = [&atoms](AtomId a) {
    return std::make_pair(atoms.PredicateOf(a), atoms.TupleOf(a));
  };
  std::vector<AtomId> order(atoms.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&key](AtomId a, AtomId b) { return key(a) < key(b); });
  for (const AtomId a : order) outcome.values.push_back(wf.values[a]);
  outcome.truncation = wf.truncation;
  outcome.total = wf.total;
  return outcome;
}

// Grounds win/move over an even 1024-cycle and runs the well-founded
// tie-breaking interpreter, all under `context`. The cycle is one bottom
// tie of 1024 live atoms, so the tie pass checkpoints four times before
// the break; `layer` receives the tag of the checkpoint that tripped.
WfOutcome RunTieBreakingPipeline(ExecutionContext* context,
                                 std::string* layer) {
  Program program = WinMoveProgram();
  Database database = *CycleDatabase(&program, "move", 1024);
  GroundingOptions options;
  options.context = context;
  Result<GroundingResult> ground = Ground(program, database, options);
  WfOutcome outcome;
  if (ground.ok()) {
    const InterpreterResult tb = TieBreaking(
        program, database, ground->graph, TieBreakingMode::kWellFounded,
        InterpreterOptions{1, context});
    outcome.values = tb.values;
    outcome.truncation = tb.truncation;
    outcome.total = tb.total;
  } else {
    outcome.errored = true;
    outcome.code = ground.status().code();
  }
  *layer = context->truncation().layer;
  return outcome;
}

TEST(FaultInjectionTest, TieBreakingPipelineSurvivesTripAtEveryCheckpoint) {
  fault_injection::CountCheckpoints();
  ExecutionContext count_context;
  std::string layer;
  const WfOutcome clean = RunTieBreakingPipeline(&count_context, &layer);
  const int64_t checkpoints = fault_injection::CheckpointsObserved();
  fault_injection::Disarm();
  ASSERT_FALSE(clean.errored);
  ASSERT_TRUE(clean.truncation.ok());
  ASSERT_TRUE(clean.total);  // the tie was broken
  ASSERT_GT(checkpoints, 0);

  int64_t tie_pass_trips = 0;
  for (int64_t n = 0; n < checkpoints; ++n) {
    fault_injection::TripAtCheckpoint(n);
    ExecutionContext context;
    const WfOutcome tripped = RunTieBreakingPipeline(&context, &layer);
    fault_injection::Disarm();
    ASSERT_TRUE(context.stopped()) << "checkpoint " << n;
    EXPECT_EQ(context.status().code(), StatusCode::kCancelled)
        << "checkpoint " << n;
    if (layer == "tie_pass") ++tie_pass_trips;
    if (tripped.errored) {
      EXPECT_EQ(tripped.code, StatusCode::kCancelled) << "checkpoint " << n;
      continue;
    }
    // A trip in the tie pass reports no tie, so nothing is broken and the
    // run stops with a sound prefix of the default-policy run.
    ASSERT_FALSE(tripped.truncation.ok()) << "checkpoint " << n;
    EXPECT_EQ(tripped.truncation.code(), StatusCode::kCancelled)
        << "checkpoint " << n;
    EXPECT_FALSE(tripped.total) << "checkpoint " << n;
    ASSERT_EQ(tripped.values.size(), clean.values.size())
        << "checkpoint " << n;
    for (size_t a = 0; a < tripped.values.size(); ++a) {
      if (tripped.values[a] == Truth::kUndef) continue;
      EXPECT_EQ(tripped.values[a], clean.values[a])
          << "checkpoint " << n << " atom " << a;
    }
  }
  EXPECT_GT(tie_pass_trips, 0);

  ExecutionContext rerun_context;
  const WfOutcome rerun = RunTieBreakingPipeline(&rerun_context, &layer);
  ASSERT_FALSE(rerun.errored);
  EXPECT_TRUE(rerun.truncation.ok());
  EXPECT_EQ(rerun.values, clean.values);
}

TEST(FaultInjectionTest, WellFoundedPipelineSurvivesTripAtEveryCheckpoint) {
  // Count pass: no limits, hook counts checkpoints but never fires.
  fault_injection::CountCheckpoints();
  ExecutionContext count_context;
  const WfOutcome clean = RunWellFoundedPipeline(&count_context, 2);
  const int64_t checkpoints = fault_injection::CheckpointsObserved();
  fault_injection::Disarm();
  ASSERT_FALSE(clean.errored);
  ASSERT_TRUE(clean.truncation.ok());
  // (win/move over a random digraph has draws, so the clean model need not
  // be total — only untruncated.)
  ASSERT_GT(checkpoints, 0);

  for (int64_t n = 0; n < checkpoints; ++n) {
    fault_injection::TripAtCheckpoint(n);
    ExecutionContext context;
    const WfOutcome tripped = RunWellFoundedPipeline(&context, 2);
    fault_injection::Disarm();
    ASSERT_TRUE(context.stopped()) << "checkpoint " << n;
    EXPECT_EQ(context.status().code(), StatusCode::kCancelled)
        << "checkpoint " << n;
    if (tripped.errored) {
      // Trip during grounding: surfaced as a plain error Status.
      EXPECT_EQ(tripped.code, StatusCode::kCancelled) << "checkpoint " << n;
    } else {
      // Trip during interpretation: a truncated partial result whose
      // decided atoms must agree with the clean model (soundness of
      // partial answers).
      ASSERT_FALSE(tripped.truncation.ok()) << "checkpoint " << n;
      EXPECT_EQ(tripped.truncation.code(), StatusCode::kCancelled)
          << "checkpoint " << n;
      EXPECT_FALSE(tripped.total) << "checkpoint " << n;
      ASSERT_EQ(tripped.values.size(), clean.values.size())
          << "checkpoint " << n;
      for (size_t a = 0; a < tripped.values.size(); ++a) {
        if (tripped.values[a] == Truth::kUndef) continue;
        EXPECT_EQ(tripped.values[a], clean.values[a])
            << "checkpoint " << n << " atom " << a;
      }
    }
  }

  // Rerun agreement: a clean run after the sweep reproduces the original
  // model exactly (no injected trip leaked state anywhere).
  ExecutionContext rerun_context;
  const WfOutcome rerun = RunWellFoundedPipeline(&rerun_context, 2);
  ASSERT_FALSE(rerun.errored);
  EXPECT_TRUE(rerun.truncation.ok());
  EXPECT_EQ(rerun.values, clean.values);
}

// Same sweep with 8-way grounding into the shared context, then the
// well-founded interpreter asked for 8 threads (it closes serially), on two
// boards. The first, 576 moves, is below two emission shards of binding
// rows, so its grounding takes the serial path at any thread count; the
// second, 3,072 moves, fills them and grounds on the pool, which the
// checkpoint counts show (a pooled grounding checkpoints once more per
// emission job, when the job ends). There any grounding worker's
// checkpoint can be the one that trips while its siblings are
// mid-emission, so this exercises the barrier-consistent unwind of
// ParallelFor (and, under TSan, the cross-thread publication of the trip
// flag).
TEST(FaultInjectionTest,
     ParallelWellFoundedPipelineSurvivesTripAtEveryCheckpoint) {
  for (const auto& [board, pooled] :
       {std::pair<Board, bool>{Board{192, 576}, false},
        std::pair<Board, bool>{Board{1024, 3072}, true}}) {
    SCOPED_TRACE("moves=" + std::to_string(board.moves));
    fault_injection::CountCheckpoints();
    ExecutionContext count_context;
    const WfOutcome clean =
        RunWellFoundedPipeline(&count_context, 8, 8, board);
    const int64_t checkpoints = fault_injection::CheckpointsObserved();
    fault_injection::Disarm();
    ASSERT_FALSE(clean.errored);
    ASSERT_TRUE(clean.truncation.ok());
    ASSERT_GT(checkpoints, 0);

    // The serial reference model: the 8-thread clean run must match it.
    fault_injection::CountCheckpoints();
    ExecutionContext serial_context;
    const WfOutcome serial =
        RunWellFoundedPipeline(&serial_context, 1, 1, board);
    const int64_t serial_checkpoints = fault_injection::CheckpointsObserved();
    fault_injection::Disarm();
    ASSERT_FALSE(serial.errored);
    ASSERT_EQ(clean.values, serial.values);
    EXPECT_EQ(checkpoints > serial_checkpoints, pooled);

    for (int64_t n = 0; n < checkpoints; ++n) {
      fault_injection::TripAtCheckpoint(n);
      ExecutionContext context;
      const WfOutcome tripped = RunWellFoundedPipeline(&context, 8, 8, board);
      fault_injection::Disarm();
      ASSERT_TRUE(context.stopped()) << "checkpoint " << n;
      EXPECT_EQ(context.status().code(), StatusCode::kCancelled)
          << "checkpoint " << n;
      if (tripped.errored) {
        EXPECT_EQ(tripped.code, StatusCode::kCancelled) << "checkpoint " << n;
      } else {
        ASSERT_FALSE(tripped.truncation.ok()) << "checkpoint " << n;
        EXPECT_EQ(tripped.truncation.code(), StatusCode::kCancelled)
            << "checkpoint " << n;
        EXPECT_FALSE(tripped.total) << "checkpoint " << n;
        ASSERT_EQ(tripped.values.size(), clean.values.size())
            << "checkpoint " << n;
        for (size_t a = 0; a < tripped.values.size(); ++a) {
          if (tripped.values[a] == Truth::kUndef) continue;
          EXPECT_EQ(tripped.values[a], clean.values[a])
              << "checkpoint " << n << " atom " << a;
        }
      }
    }

    ExecutionContext rerun_context;
    const WfOutcome rerun = RunWellFoundedPipeline(&rerun_context, 8, 8, board);
    ASSERT_FALSE(rerun.errored);
    EXPECT_TRUE(rerun.truncation.ok());
    EXPECT_EQ(rerun.values, clean.values);
  }
}

// A ground instance for the stable-model sweeps.
struct StableInstance {
  Program program;
  Database database;
  GroundingResult ground;
};

// An even negation ring of 12 propositions: 2 stable models, and a close
// too small to reach a checkpoint.
StableInstance MakeRingInstance() {
  Program program = NegationRingProgram(12);
  Database database(program);
  GroundingResult ground = Ground(program, database).value();
  return StableInstance{std::move(program), std::move(database),
                        std::move(ground)};
}

// win/move over a seeded 1000-position random digraph: the Kripke–Kleene
// close decides about 700 atoms, so FixpointSearch's constructor
// checkpoints inside it, and the live residue of about 300 atoms has 6
// stable models.
StableInstance MakeWinMoveInstance() {
  Program program = WinMoveProgram();
  Rng rng(37);
  Database database =
      *RandomDigraphDatabase(&program, "move", 1000, 2200, &rng);
  GroundingResult ground = Ground(program, database).value();
  return StableInstance{std::move(program), std::move(database),
                        std::move(ground)};
}

// Stable-model search under `context`: completion SAT search plus the
// governed stability check (close, SAT solver, fixpoint scans).
std::vector<std::vector<Truth>> RunStableModelPipeline(
    const StableInstance& inst, ExecutionContext* context) {
  return EnumerateStableModels(inst.program, inst.database, inst.ground.graph,
                               /*limit=*/0, context);
}

TEST(FaultInjectionTest, StableModelSearchSurvivesTripAtEveryCheckpoint) {
  for (const StableInstance& inst :
       {MakeRingInstance(), MakeWinMoveInstance()}) {
    fault_injection::CountCheckpoints();
    ExecutionContext count_context;
    const std::vector<std::vector<Truth>> clean =
        RunStableModelPipeline(inst, &count_context);
    const int64_t checkpoints = fault_injection::CheckpointsObserved();
    fault_injection::Disarm();
    ASSERT_GT(checkpoints, 0);
    ASSERT_FALSE(clean.empty());

    for (int64_t n = 0; n < checkpoints; ++n) {
      fault_injection::TripAtCheckpoint(n);
      ExecutionContext context;
      const std::vector<std::vector<Truth>> models =
          RunStableModelPipeline(inst, &context);
      fault_injection::Disarm();
      ASSERT_TRUE(context.stopped()) << "checkpoint " << n;
      EXPECT_EQ(context.status().code(), StatusCode::kCancelled)
          << "checkpoint " << n;
      // A tripped enumeration returns a sound prefix of the model list.
      ASSERT_LE(models.size(), clean.size()) << "checkpoint " << n;
      for (size_t i = 0; i < models.size(); ++i) {
        EXPECT_EQ(models[i], clean[i]) << "checkpoint " << n;
      }
    }

    ExecutionContext rerun_context;
    EXPECT_EQ(RunStableModelPipeline(inst, &rerun_context), clean);
  }
}

// FixpointSearch's constructor closes M0(Δ) under its context. A trip there
// must leave nothing to enumerate and truncation() carrying the trip; a
// trip in the search must end the enumeration the same way. Either way the
// fixpoints found are a prefix of the clean run's.
TEST(FaultInjectionTest, FixpointSearchSurvivesTripInsideTheClose) {
  const StableInstance inst = MakeWinMoveInstance();
  const auto enumerate = [&](ExecutionContext* context, bool* in_close) {
    FixpointSearch search(inst.program, inst.database, inst.ground.graph,
                          context);
    *in_close = context->stopped();
    std::vector<std::vector<Truth>> models;
    while (std::optional<std::vector<Truth>> model = search.Next()) {
      models.push_back(std::move(*model));
    }
    EXPECT_EQ(search.truncation().code(), context->status().code());
    EXPECT_FALSE(search.Next().has_value());
    return models;
  };
  fault_injection::CountCheckpoints();
  ExecutionContext count_context;
  bool in_close = false;
  const std::vector<std::vector<Truth>> clean =
      enumerate(&count_context, &in_close);
  const int64_t checkpoints = fault_injection::CheckpointsObserved();
  fault_injection::Disarm();
  ASSERT_FALSE(in_close);
  ASSERT_FALSE(clean.empty());

  int64_t close_trips = 0;
  for (int64_t n = 0; n < checkpoints; ++n) {
    fault_injection::TripAtCheckpoint(n);
    ExecutionContext context;
    const std::vector<std::vector<Truth>> models =
        enumerate(&context, &in_close);
    fault_injection::Disarm();
    ASSERT_TRUE(context.stopped()) << "checkpoint " << n;
    EXPECT_EQ(context.status().code(), StatusCode::kCancelled)
        << "checkpoint " << n;
    if (in_close) {
      ++close_trips;
      EXPECT_EQ(context.truncation().layer, "close") << "checkpoint " << n;
      EXPECT_TRUE(models.empty()) << "checkpoint " << n;
    }
    ASSERT_LE(models.size(), clean.size()) << "checkpoint " << n;
    for (size_t i = 0; i < models.size(); ++i) {
      EXPECT_EQ(models[i], clean[i]) << "checkpoint " << n;
    }
  }
  EXPECT_GT(close_trips, 0);

  ExecutionContext rerun_context;
  EXPECT_EQ(enumerate(&rerun_context, &in_close), clean);
}

// A close that trips leaves its state half-propagated: atoms assigned but
// not yet drained keep their consumers alive. LargestUnfoundedSet must then
// report nothing, even when its own simulation would pop too few atoms to
// reach a checkpoint. Here the clean close leaves only the positive loop x
// live (and unfounded); the tripped one leaves d live beside it.
TEST(FaultInjectionTest, UnfoundedSetOfATrippedCloseIsEmpty) {
  std::string text = "x :- x.\n";
  for (int i = 0; i < 300; ++i) {
    const std::string n = std::to_string(i);
    text += "d :- q" + n + ".\nq" + n + " :- z" + n + ".\n";
  }
  Result<Program> program = ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Result<Database> database = ParseDatabase("", &*program);
  ASSERT_TRUE(database.ok()) << database.status().ToString();
  Result<GroundingResult> ground = Ground(*program, *database);
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();

  const CloseState clean(*program, *database, ground->graph);
  ASSERT_EQ(clean.num_live_atoms(), 1);
  EXPECT_EQ(clean.LargestUnfoundedSet().size(), 1u);

  ResourceLimits limits;
  limits.max_steps = 1;
  ExecutionContext context(limits);
  const CloseState tripped(*program, *database, ground->graph, &context);
  ASSERT_TRUE(context.stopped());
  EXPECT_EQ(context.truncation().layer, "close");
  EXPECT_GT(tripped.num_live_atoms(), 1);
  EXPECT_TRUE(tripped.LargestUnfoundedSet().empty());
}

// Sorted bindings: demand and full grounding may report them in different
// orders (different graphs), never different sets.
std::vector<Tuple> Sorted(std::vector<Tuple> bindings) {
  std::sort(bindings.begin(), bindings.end());
  return bindings;
}

// A planner's first demand request builds Δ's kept engine relations. Trip
// it at each of its checkpoints: it unwinds to a truncated answer, and clean
// requests on the same planner, which borrow whatever the tripped request
// published, agree with full grounding (which loads Δ per call).
TEST(FaultInjectionTest, KeptRelationsSurviveTripOfTheFirstQuery) {
  Program program = WinMoveProgram();
  Rng rng(7);
  const Database database =
      *RandomDigraphDatabase(&program, "move", 64, 160, &rng);
  for (const int32_t threads : {1, 4}) {
    QueryOptions options;
    options.num_threads = threads;
    const auto first_request = [&](QueryPlanner* planner,
                                   ExecutionContext* context) {
      QueryOptions governed = options;
      governed.context = context;
      return planner->Execute("win(n0)", governed);
    };
    fault_injection::CountCheckpoints();
    {
      QueryPlanner planner(program, database);
      ExecutionContext count_context;
      ASSERT_TRUE(first_request(&planner, &count_context).ok());
    }
    const int64_t checkpoints = fault_injection::CheckpointsObserved();
    fault_injection::Disarm();
    ASSERT_GT(checkpoints, 0);

    for (int64_t n = 0; n < checkpoints; ++n) {
      QueryPlanner planner(program, database);
      fault_injection::TripAtCheckpoint(n);
      ExecutionContext context;
      const Result<QueryResult> tripped = first_request(&planner, &context);
      fault_injection::Disarm();
      ASSERT_TRUE(tripped.ok()) << "checkpoint " << n;
      ASSERT_TRUE(context.stopped()) << "checkpoint " << n;
      EXPECT_EQ(tripped->truncation.code(), StatusCode::kCancelled)
          << "checkpoint " << n;
      for (const char* pattern : {"win(n0)", "win(X)", "win(n9)"}) {
        const Result<QueryResult> demand = planner.Execute(pattern, options);
        QueryOptions full = options;
        full.mode = QueryMode::kFullGround;
        const Result<QueryResult> oracle = planner.Execute(pattern, full);
        ASSERT_TRUE(demand.ok() && oracle.ok()) << "checkpoint " << n;
        EXPECT_TRUE(demand->truncation.ok()) << "checkpoint " << n;
        EXPECT_EQ(Sorted(demand->true_bindings),
                  Sorted(oracle->true_bindings))
            << pattern << " after a trip at checkpoint " << n;
        EXPECT_EQ(Sorted(demand->undefined_bindings),
                  Sorted(oracle->undefined_bindings))
            << pattern << " after a trip at checkpoint " << n;
      }
      EXPECT_EQ(planner.stats().fallbacks, 0) << "checkpoint " << n;
    }
  }
}

}  // namespace
}  // namespace tiebreak
