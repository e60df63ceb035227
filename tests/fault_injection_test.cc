// Fault-injection sweep: run a governed workload once in counting mode to
// learn how many ExecutionContext checkpoints it executes, then replay it
// with cancellation injected at every checkpoint index, asserting at each
// index that the pipeline unwinds cleanly — no crash, a well-formed
// kCancelled Status (or a sound truncated partial result), and full
// agreement with a clean run afterwards. Run under ASan/UBSan by
// scripts/check.sh to catch unwind-path leaks and UB.
#include <vector>

#include "core/completion.h"
#include "core/well_founded.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
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

// Grounds win/move over a random digraph and runs the well-founded
// interpreter, all under `context`. Exercises the engine (grounding
// bindings), the grounder's emission, close and unfounded sets.
// `interpreter_threads` is passed through InterpreterOptions; the
// well-founded interpreter closes serially at any count, so the count must
// not change a model or the set of checkpoints.
WfOutcome RunWellFoundedPipeline(ExecutionContext* context,
                                 int32_t num_threads,
                                 int32_t interpreter_threads = 1) {
  Program program = WinMoveProgram();
  Rng rng(7);
  Database database = *RandomDigraphDatabase(&program, "move", 192, 576, &rng);
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
  outcome.values = wf.values;
  outcome.truncation = wf.truncation;
  outcome.total = wf.total;
  return outcome;
}

// Stable-model search under `context`: completion SAT search plus the
// governed stability check (SAT solver, close, fixpoint scans).
int64_t RunStableModelPipeline(ExecutionContext* context) {
  Program program = NegationRingProgram(12);  // even ring: 2 stable models
  Database database(program);
  Result<GroundingResult> ground = Ground(program, database);
  TIEBREAK_CHECK(ground.ok());
  return static_cast<int64_t>(
      EnumerateStableModels(program, database, ground->graph, /*limit=*/0,
                            context)
          .size());
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
// well-founded interpreter asked for 8 threads (it closes serially). Any
// grounding worker's checkpoint can be the one that trips while its
// siblings are mid-emission, so this exercises the barrier-consistent
// unwind of ParallelFor (and, under TSan, the cross-thread publication of
// the trip flag).
TEST(FaultInjectionTest,
     ParallelWellFoundedPipelineSurvivesTripAtEveryCheckpoint) {
  fault_injection::CountCheckpoints();
  ExecutionContext count_context;
  const WfOutcome clean = RunWellFoundedPipeline(&count_context, 8, 8);
  const int64_t checkpoints = fault_injection::CheckpointsObserved();
  fault_injection::Disarm();
  ASSERT_FALSE(clean.errored);
  ASSERT_TRUE(clean.truncation.ok());
  ASSERT_GT(checkpoints, 0);

  // The serial reference model: the 8-thread clean run must match it.
  ExecutionContext serial_context;
  const WfOutcome serial = RunWellFoundedPipeline(&serial_context, 1, 1);
  ASSERT_FALSE(serial.errored);
  ASSERT_EQ(clean.values, serial.values);

  for (int64_t n = 0; n < checkpoints; ++n) {
    fault_injection::TripAtCheckpoint(n);
    ExecutionContext context;
    const WfOutcome tripped = RunWellFoundedPipeline(&context, 8, 8);
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
  const WfOutcome rerun = RunWellFoundedPipeline(&rerun_context, 8, 8);
  ASSERT_FALSE(rerun.errored);
  EXPECT_TRUE(rerun.truncation.ok());
  EXPECT_EQ(rerun.values, clean.values);
}

TEST(FaultInjectionTest, StableModelSearchSurvivesTripAtEveryCheckpoint) {
  fault_injection::CountCheckpoints();
  ExecutionContext count_context;
  const int64_t clean_models = RunStableModelPipeline(&count_context);
  const int64_t checkpoints = fault_injection::CheckpointsObserved();
  fault_injection::Disarm();
  ASSERT_GT(checkpoints, 0);

  for (int64_t n = 0; n < checkpoints; ++n) {
    fault_injection::TripAtCheckpoint(n);
    ExecutionContext context;
    const int64_t models = RunStableModelPipeline(&context);
    fault_injection::Disarm();
    ASSERT_TRUE(context.stopped()) << "checkpoint " << n;
    EXPECT_EQ(context.status().code(), StatusCode::kCancelled)
        << "checkpoint " << n;
    // A tripped enumeration returns a sound prefix of the model list.
    EXPECT_LE(models, clean_models) << "checkpoint " << n;
  }

  ExecutionContext rerun_context;
  EXPECT_EQ(RunStableModelPipeline(&rerun_context), clean_models);
}

}  // namespace
}  // namespace tiebreak
