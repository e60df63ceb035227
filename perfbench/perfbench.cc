// End-to-end benchmark of the user paths through the library, one workload
// per process:
//
//   solve      text -> Ground -> WellFounded -> TieBreaking(kWellFounded)
//              -> EvaluateQuery on both models, at 4 threads, on a 200k-
//              position bipartite win/move board;
//   serve      QueryPlanner point queries win(nK) over a 100k-position game
//              tree, closed loop, one client;
//   enumerate  Ground -> FixpointSearch -> Next() until exhausted, IsStable
//              on every model, over a seeded set of 2k-position bipartite
//              boards, cycled until the time is up.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Inputs come from the seed alone (inputs.h). Every answer is checked
// (checks.h) outside the timed regions; a wrong answer makes the last line
// say "correct": false and the exit code 1. With --trace 1 every unit of
// work runs twice, untraced and traced (spans plus a fresh unlimited
// ExecutionContext per call), which yields the per-layer metrics and the
// tracing overhead; the spans go to --trace-out.
//
// The end-to-end time, op_ms, is taken from the fast tail of repeated
// timings: each unit of work (the solve repetition, a point query, each
// board of the set) is timed many times across the run, its time is the
// 10th percentile of those timings, and a workload with several units
// reports their median. The host is shared, and its other tenants only
// ever add time; of the statistics tried, the fast tail moved least with
// them from run to run (README.md).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/completion.h"
#include "core/query.h"
#include "core/query_plan.h"
#include "core/stable.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "ground/ground_scc.h"
#include "ground/grounder.h"
#include "inputs.h"
#include "lang/parser.h"
#include "trace.h"
#include "util/execution_context.h"
#include "workload/game_solver.h"

namespace perfbench {
namespace {

using tiebreak::Database;
using tiebreak::ExecutionContext;
using tiebreak::GameValue;
using tiebreak::GroundGraph;
using tiebreak::GroundingResult;
using tiebreak::InterpreterOptions;
using tiebreak::InterpreterResult;
using tiebreak::Program;
using tiebreak::QueryResult;
using tiebreak::Result;
using tiebreak::Truth;

// The seed whose enumerate boards have pinned stable-model counts. Every
// other seed is a held-out input: a claim made on the default seed can be
// rechecked on one not used while the change was written.
constexpr uint64_t kDefaultSeed = 1;
// Threads for the solve pipeline: fixed, so that commits compare on one
// configuration, at the core count of the machine it was sized on.
constexpr int kSolveThreads = 4;
constexpr int kSetupRepeats = 3;
// The percentile of a unit's timings that is its time in op_ms.
constexpr double kFastTail = 10;

constexpr int32_t kSolvePositions = 200'000;
constexpr double kSolveDegree = 3.5;
constexpr int32_t kServePositions = 100'000;
constexpr int32_t kBoardPositions = 2'000;
// Mean out-degree of the enumerate boards: hard enough that the SAT layer
// does most of the work, below the threshold (~3.3 on 2k positions) where
// single boards start to take seconds and the median over a run's boards
// swings from seed to seed.
constexpr double kBoardDegree = 3.0;
// Boards in the enumerate set. Board times spread over two orders of
// magnitude, so the median over the set moves from seed to seed; at 256
// boards four seeds on a calm host agreed within 0.03, and a 30 s run
// still decides every board five or six times.
constexpr int kEnumerateBoards = 256;
// Traced serve runs time this many win(X) scans after the point queries;
// scans are a per-layer figure only (see README.md).
constexpr int kTracedScans = 10;

// Per-operation limits. An operation over its limit counts as failed; the
// limit is measured, never enforced by cancellation.
constexpr double kSolveLimitS = 60;
constexpr double kPointLimitS = 1;
constexpr double kScanLimitS = 10;
constexpr double kBoardLimitS = 10;

// Stable-model counts of the first boards of the default seed.
constexpr int64_t kPinnedModels[] = {
    23, 2, 7,  1,  2,  10, 4, 5, 2, 40, 8,  2,  154, 2, 7, 3,
    2,  17, 6, 6, 15, 89, 29, 33, 6, 6,  12, 31, 93, 2, 4, 6};

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// What one workload run measured and checked.
struct Run {
  bool correct = true;
  std::string error;  // the first wrong answer
  // Operation type -> {attempted, failed}.
  std::map<std::string, std::pair<int64_t, int64_t>> ops;
  std::vector<double> setup_s;
  // Untraced latencies per operation type.
  std::map<std::string, std::vector<double>> samples_ms;
  double op_ms = 0;  // see the comment at the top of this file
  // Paired traced / untraced durations of the same unit of work.
  std::vector<double> overhead_ratio;
  // Figures under the names the issue tracker uses, for the log.
  std::vector<std::pair<std::string, std::string>> summary;
  std::map<std::string, double> layers;
  Tracer tracer;

  void Wrong(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
  // Records one attempt; returns `ok`.
  bool Attempt(const std::string& type, bool ok) {
    auto& [attempted, failed] = ops[type];
    ++attempted;
    failed += ok ? 0 : 1;
    return ok;
  }
  void Note(const std::string& key, double value, const char* format) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), format, value);
    summary.emplace_back(key, buffer);
  }
};

// Value at percentile `p` (0..100) of `values`, nearest rank.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// The highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it,
// or -1 when there are too few samples for any.
double TailPercentile(size_t samples) {
  double best = -1;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if ((1 - p / 100) * static_cast<double>(samples) >= 10) best = p;
  }
  return best;
}

void NoteLatency(Run* run, const std::string& name,
                 const std::vector<double>& ms) {
  run->Note(name + "_p50_ms", Median(ms), "%.3f");
  const double tail = TailPercentile(ms.size());
  if (tail > 0) {
    char label[48];
    std::snprintf(label, sizeof(label), "%s_tail_ms(p%g)", name.c_str(), tail);
    run->Note(label, Percentile(ms, tail), "%.3f");
  }
  run->Note(name + "_samples", static_cast<double>(ms.size()), "%.0f");
}

// One library call: wall and CPU time, and with a tracer a span plus a
// fresh unlimited ExecutionContext whose steps and bytes land on the span.
// Untraced, context() is null, so the call runs exactly as a user's would.
class Call {
 public:
  Call(Tracer* tracer, const std::string& name, int64_t id, int32_t parent,
       int threads = 1)
      : tracer_(tracer), threads_(threads), cpu_start_(CpuSeconds()) {
    if (tracer_ != nullptr) {
      context_.emplace();
      span_ = tracer_->Begin(name, id, parent);
    }
    start_ = Now();
  }

  ExecutionContext* context() {
    return context_.has_value() ? &*context_ : nullptr;
  }
  int32_t span() const { return span_; }

  // Ends the call; returns its wall seconds.
  double End() {
    const double wall = Now() - start_;
    if (tracer_ != nullptr) {
      tracer_->End(span_);
      const double cpu = CpuSeconds() - cpu_start_;
      Count("cpu_s", cpu);
      Count("util", wall > 0 ? cpu / (wall * threads_) : 0);
      Count("steps", static_cast<double>(context_->steps_charged()));
      Count("bytes", static_cast<double>(context_->bytes_charged()));
    }
    return wall;
  }
  void Count(const std::string& key, double value) {
    if (tracer_ != nullptr) tracer_->Count(span_, key, value);
  }

 private:
  Tracer* tracer_;
  int threads_;
  double cpu_start_;
  double start_ = 0;
  int32_t span_ = -1;
  std::optional<ExecutionContext> context_;
};

struct Parsed {
  Program program;
  std::unique_ptr<Database> database;  // stable address: planners borrow it
};

// Parses the program and Δ. Returns nullopt (after recording a wrong
// answer) when the text does not parse, which would be a library defect:
// the text is generated.
std::optional<Parsed> ParseInputs(const std::string& facts, Run* run,
                                  Tracer* tracer, int64_t id) {
  Call call(tracer, "lang.parse", id, -1);
  Result<Program> program = tiebreak::ParseProgram(kWinMoveProgram);
  std::optional<Parsed> parsed;
  if (program.ok()) {
    Result<Database> database = tiebreak::ParseDatabase(facts, &*program);
    if (database.ok()) {
      parsed.emplace();
      parsed->database =
          std::make_unique<Database>(std::move(database).value());
      parsed->program = std::move(program).value();
    } else {
      run->Wrong("Δ text does not parse: " + database.status().ToString());
    }
  } else {
    run->Wrong("program text does not parse: " + program.status().ToString());
  }
  call.End();
  if (parsed.has_value()) {
    call.Count("facts", static_cast<double>(parsed->database->TotalFacts()));
  }
  run->Attempt("parse", parsed.has_value());
  return parsed;
}

// ConstId -> position for the constants n0..n<positions-1>.
std::vector<int32_t> PositionsOfConstants(const Program& program,
                                          int32_t positions) {
  std::vector<int32_t> position_of_const(program.num_constants(), -1);
  for (int32_t v = 0; v < positions; ++v) {
    const tiebreak::ConstId id =
        program.LookupConstant("n" + std::to_string(v));
    if (id >= 0) position_of_const[id] = v;
  }
  return position_of_const;
}

// Runs one unit of work through `op(tracer)`, which returns its wall
// seconds or a negative value on failure. In traced runs the unit runs
// twice, untraced and traced, alternating which goes first so that warm-up
// effects cancel out of the overhead ratio.
template <typename Op>
void Twin(Run* run, Tracer* tracer, int64_t id, Op op) {
  if (tracer == nullptr) {
    op(nullptr);
    return;
  }
  const bool traced_first = id % 2 == 1;
  const double first = op(traced_first ? tracer : nullptr);
  const double second = op(traced_first ? nullptr : tracer);
  const double untraced = traced_first ? second : first;
  const double traced = traced_first ? first : second;
  if (untraced > 0 && traced > 0) {
    run->overhead_ratio.push_back(traced / untraced);
  }
}

// Books one finished operation of `type`: an attempt, failed when the call
// failed or ran over `limit_s`. Untraced operations that returned an answer
// also give a latency sample. Returns whether there is an answer to check.
bool Finish(Run* run, Tracer* tracer, const std::string& type, bool answered,
            double seconds, double limit_s) {
  run->Attempt(tracer != nullptr ? type + ".traced" : type,
               answered && seconds <= limit_s);
  if (answered && tracer == nullptr) {
    run->samples_ms[type].push_back(seconds * 1e3);
  }
  return answered;
}

// Median self time of the spans named `name`, and medians of their counts.
void LayerTime(Run* run, const std::string& metric, const std::string& span) {
  run->layers[metric] = Median(run->tracer.SelfTimes(span));
}
void LayerCount(Run* run, const std::string& metric, const std::string& span,
                const std::string& key) {
  run->layers[metric] = Median(run->tracer.Counts(span, key));
}

void LayerParse(Run* run) {
  const double parse_s = Median(run->tracer.SelfTimes("lang.parse"));
  run->layers["lang.parse_s"] = parse_s;
  const double facts = Median(run->tracer.Counts("lang.parse", "facts"));
  run->layers["lang.facts_per_s"] = parse_s > 0 ? facts / parse_s : 0;
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

// Everything one repetition produced, kept alive past its timed region so
// checks and the 1-thread comparison calls run on the same inputs.
struct SolveRep {
  std::optional<GroundingResult> grounded;
  InterpreterResult wf;
  InterpreterResult tb;
  std::optional<QueryResult> wf_answers;
  std::optional<QueryResult> tb_answers;
  std::string failure;
};

// Ground -> WF -> WFTB -> win(X) on both models, at kSolveThreads. Returns
// the wall seconds of the whole repetition.
double RunSolvePipeline(Program* program, const Database& database,
                        Tracer* tracer, int64_t id, SolveRep* rep) {
  const int threads = kSolveThreads;
  Call whole(tracer, "solve.rep", id, -1);
  const int32_t root = whole.span();
  {
    Call call(tracer, "ground", id, root, threads);
    tiebreak::GroundingOptions options;
    options.num_threads = threads;
    options.context = call.context();
    Result<GroundingResult> grounded =
        tiebreak::Ground(*program, database, options);
    call.End();
    if (!grounded.ok()) {
      rep->failure = "Ground: " + grounded.status().ToString();
      return whole.End();
    }
    rep->grounded.emplace(std::move(grounded).value());
    const GroundGraph& graph = rep->grounded->graph;
    call.Count("nodes", graph.num_atoms() + graph.num_rules());
  }
  const GroundGraph& graph = rep->grounded->graph;
  {
    Call call(tracer, "core.wf", id, root, threads);
    rep->wf = tiebreak::WellFounded(
        *program, database, graph, InterpreterOptions{threads, call.context()});
    call.End();
    call.Count("undefined", static_cast<double>(rep->wf.CountUndefined()));
  }
  {
    Call call(tracer, "core.wftb", id, root, threads);
    rep->tb = tiebreak::TieBreaking(
        *program, database, graph, tiebreak::TieBreakingMode::kWellFounded,
        InterpreterOptions{threads, call.context()});
    call.End();
    call.Count("ties", rep->tb.ties_broken);
    call.Count("unfounded_rounds", rep->tb.unfounded_rounds);
  }
  for (auto [model, answers] :
       {std::pair{&rep->wf, &rep->wf_answers},
        std::pair{&rep->tb, &rep->tb_answers}}) {
    Call call(tracer, "core.query", id, root);
    Result<QueryResult> result = tiebreak::EvaluateQuery(
        program, graph, model->values, "win(X)", call.context());
    call.End();
    if (!result.ok() || !result->truncation.ok()) {
      rep->failure = "EvaluateQuery: " + (result.ok()
                                              ? result->truncation.ToString()
                                              : result.status().ToString());
      return whole.End();
    }
    call.Count("answers",
               static_cast<double>(result->true_bindings.size() +
                                   result->undefined_bindings.size()));
    answers->emplace(std::move(result).value());
  }
  const double seconds = whole.End();
  for (const InterpreterResult* model : {&rep->wf, &rep->tb}) {
    if (!model->truncation.ok()) {
      rep->failure = "interpreter truncated: " + model->truncation.ToString();
    }
  }
  return seconds;
}

// The same calls at one thread on the same inputs, plus the SCC schedule
// of the final graph; traced runs only. Every thread count must compute the
// same models, so the serial ones are compared with the repetition's.
// Returns "" or the first mismatch.
std::string RunSolveSerialCalls(const Program& program,
                                const Database& database, const SolveRep& rep,
                                Tracer* tracer, int64_t id) {
  Call whole(tracer, "solve.t1", id, -1);
  const int32_t root = whole.span();
  const GroundGraph& graph = rep.grounded->graph;
  std::string error;
  {
    Call call(tracer, "ground.t1", id, root);
    tiebreak::GroundingOptions options;
    options.context = call.context();
    Result<GroundingResult> grounded =
        tiebreak::Ground(program, database, options);
    call.End();
    if (!grounded.ok()) {
      error = "serial Ground: " + grounded.status().ToString();
    }
  }
  {
    Call call(tracer, "core.wf.t1", id, root);
    const InterpreterResult wf = tiebreak::WellFounded(
        program, database, graph, InterpreterOptions{1, call.context()});
    call.End();
    if (wf.values != rep.wf.values) error = "serial WF model differs";
  }
  {
    Call call(tracer, "core.wftb.t1", id, root);
    const InterpreterResult tb = tiebreak::TieBreaking(
        program, database, graph, tiebreak::TieBreakingMode::kWellFounded,
        InterpreterOptions{1, call.context()});
    call.End();
    if (tb.values != rep.tb.values) error = "serial WFTB model differs";
  }
  {
    Call call(tracer, "ground.scc_schedule", id, root);
    const tiebreak::SccSchedule schedule = tiebreak::BuildSccSchedule(graph);
    call.End();
    call.Count("components", schedule.scc.num_components);
    call.Count("waves", schedule.num_waves());
  }
  whole.End();
  return error;
}

void CheckSolveRep(const SolveRep& rep, const Board& board,
                   const std::vector<GameValue>& game,
                   const std::vector<int32_t>& position_of_const, Run* run) {
  std::vector<Truth> wf;
  std::vector<Truth> tb;
  std::string error = PositionTruth(*rep.wf_answers, position_of_const,
                                    board.size(), &wf);
  if (error.empty()) error = CheckWellFounded(wf, game);
  if (error.empty()) {
    error = PositionTruth(*rep.tb_answers, position_of_const, board.size(),
                          &tb);
  }
  if (error.empty() && !rep.tb.total) error = "WFTB model is not total";
  if (error.empty()) error = CheckTotalFixpoint(board, tb);
  if (error.empty()) error = CheckAgrees(tb, wf);
  if (!error.empty()) run->Wrong("solve: " + error);
}

void Solve(const Options& options, Run* run) {
  Rng rng(options.seed);
  const Board board = BipartiteBoard(kSolvePositions, kSolveDegree, &rng);
  const std::string facts = DumpOrderText(board);
  const std::vector<GameValue> game = tiebreak::SolveGame(board.moves);
  Tracer* tracer = options.trace ? &run->tracer : nullptr;

  std::optional<Parsed> inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    inputs.reset();
    const double start = Now();
    inputs = ParseInputs(facts, run, tracer, i);
    run->setup_s.push_back(Now() - start);
    if (!inputs.has_value()) return;
  }
  Program& program = inputs->program;
  const Database& database = *inputs->database;
  const std::vector<int32_t> position_of_const =
      PositionsOfConstants(program, board.size());

  const double deadline = Now() + options.seconds;
  for (int64_t id = 0; id == 0 || Now() < deadline; ++id) {
    Twin(run, tracer, id, [&](Tracer* t) {
      SolveRep rep;
      const double seconds = RunSolvePipeline(&program, database, t, id, &rep);
      if (!Finish(run, t, "solve", rep.failure.empty(), seconds,
                  kSolveLimitS)) {
        return -1.0;
      }
      CheckSolveRep(rep, board, game, position_of_const, run);
      if (t != nullptr) {
        const std::string error =
            RunSolveSerialCalls(program, database, rep, t, id);
        if (!error.empty()) run->Wrong("solve: " + error);
      }
      return seconds;
    });
  }
  const std::vector<double>& reps = run->samples_ms["solve"];
  run->op_ms = Percentile(reps, kFastTail);
  run->Note("solve_s", Median(reps) / 1e3, "%.4f");
  run->Note("reps", static_cast<double>(reps.size()), "%.0f");

  if (tracer == nullptr) return;
  LayerParse(run);
  LayerTime(run, "ground.s", "ground");
  LayerTime(run, "ground.t1_s", "ground.t1");
  LayerCount(run, "ground.util", "ground", "util");
  LayerCount(run, "ground.nodes", "ground", "nodes");
  LayerCount(run, "ground.steps", "ground", "steps");
  LayerTime(run, "ground.scc_schedule_s", "ground.scc_schedule");
  LayerCount(run, "ground.scc_components", "ground.scc_schedule",
             "components");
  LayerCount(run, "ground.scc_waves", "ground.scc_schedule", "waves");
  LayerTime(run, "core.wf_s", "core.wf");
  LayerTime(run, "core.wf_t1_s", "core.wf.t1");
  LayerCount(run, "core.wf_util", "core.wf", "util");
  LayerCount(run, "core.wf_undefined", "core.wf", "undefined");
  LayerCount(run, "core.wf_steps", "core.wf", "steps");
  LayerTime(run, "core.wftb_s", "core.wftb");
  LayerTime(run, "core.wftb_t1_s", "core.wftb.t1");
  LayerCount(run, "core.wftb_util", "core.wftb", "util");
  LayerCount(run, "core.wftb_ties", "core.wftb", "ties");
  LayerCount(run, "core.wftb_unfounded_rounds", "core.wftb",
             "unfounded_rounds");
  LayerCount(run, "core.wftb_steps", "core.wftb", "steps");
  LayerTime(run, "core.query_s", "core.query");
  LayerCount(run, "core.query_answers", "core.query", "answers");
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

struct Request {
  bool scan = false;
  int32_t position = -1;  // points only
  std::string pattern;
};

Request MakeRequest(bool scan, int32_t positions, Rng* rng) {
  Request request;
  request.scan = scan;
  if (scan) {
    request.pattern = "win(X)";
  } else {
    request.position = static_cast<int32_t>(rng->Below(positions));
    request.pattern = "win(n" + std::to_string(request.position) + ")";
  }
  return request;
}

// Serves one request; returns its wall seconds. `answer` stays empty when
// the planner returned an error or a truncated answer.
double Serve(tiebreak::QueryPlanner* planner, const Request& request,
             Tracer* tracer, int64_t id, std::optional<QueryResult>* answer) {
  Call call(tracer, request.scan ? "core.query_plan.scan"
                                 : "core.query_plan.point",
            id, -1);
  tiebreak::QueryOptions query_options;
  query_options.context = call.context();
  Result<QueryResult> result = planner->Execute(request.pattern, query_options);
  const double seconds = call.End();
  if (result.ok() && result->truncation.ok()) {
    answer->emplace(std::move(result).value());
  }
  return seconds;
}

void CheckAnswer(const Request& request, const QueryResult& answer,
                 const std::vector<GameValue>& game,
                 const std::vector<int32_t>& position_of_const, Run* run) {
  std::string error;
  if (request.scan) {
    std::vector<Truth> truth;
    error = PositionTruth(answer, position_of_const,
                          static_cast<int32_t>(game.size()), &truth);
    if (error.empty()) error = CheckWellFounded(truth, game);
  } else {
    const bool won = game[request.position] == GameValue::kWon;
    const bool said_true = answer.true_bindings.size() == 1 &&
                           answer.true_bindings[0].empty();
    if (!answer.undefined_bindings.empty() ||
        answer.true_bindings.size() > 1 || said_true != won) {
      error = "wrong answer to " + request.pattern;
    }
  }
  if (!error.empty()) run->Wrong("serve: " + error);
}

// One planner over the game tree, serving point queries. Scans are timed
// only in traced runs, after the points: their latency swings with the
// load of the host's other tenants far beyond any bound an end-to-end
// metric may have (README.md), and mixing them into the points would need
// a traffic mix that nothing measures.
void ServeWorkload(const Options& options, Run* run) {
  Rng rng(options.seed);
  const Board tree = GameTree(kServePositions, &rng);
  const std::string facts = ShuffledText(tree, &rng);
  const std::vector<GameValue> game = tiebreak::SolveGame(tree.moves);
  const std::vector<int32_t> subtree = SubtreeSizes(tree);
  Tracer* tracer = options.trace ? &run->tracer : nullptr;

  // Set-up: parse, build the planner, serve one request of each kind.
  std::optional<Parsed> inputs;
  std::optional<tiebreak::QueryPlanner> planner;
  std::vector<int32_t> position_of_const;
  for (int i = 0; i < kSetupRepeats; ++i) {
    planner.reset();
    inputs.reset();
    Rng setup_rng(options.seed + i);
    const Request first[] = {MakeRequest(false, kServePositions, &setup_rng),
                             MakeRequest(true, kServePositions, &setup_rng)};
    const double start = Now();
    inputs = ParseInputs(facts, run, tracer, i);
    if (!inputs.has_value()) return;
    planner.emplace(inputs->program, *inputs->database);
    std::optional<QueryResult> answers[2];
    for (int k = 0; k < 2; ++k) {
      Serve(&*planner, first[k], nullptr, i, &answers[k]);
      if (!run->Attempt(first[k].scan ? "scan" : "point",
                        answers[k].has_value())) {
        return;
      }
    }
    run->setup_s.push_back(Now() - start);
    position_of_const = PositionsOfConstants(inputs->program, tree.size());
    for (int k = 0; k < 2; ++k) {
      CheckAnswer(first[k], *answers[k], game, position_of_const, run);
    }
  }

  const auto serve = [&](const Request& request, int64_t id) {
    Twin(run, tracer, id, [&](Tracer* t) {
      std::optional<QueryResult> answer;
      const double seconds = Serve(&*planner, request, t, id, &answer);
      if (!Finish(run, t, request.scan ? "scan" : "point",
                  answer.has_value(), seconds,
                  request.scan ? kScanLimitS : kPointLimitS)) {
        return -1.0;
      }
      CheckAnswer(request, *answer, game, position_of_const, run);
      return seconds;
    });
  };
  std::vector<double> cones;
  // Closed loop, one client, no think time.
  Rng request_rng(options.seed ^ 0x5eed5eed5eedULL);
  const double window_start = Now();
  const double deadline = window_start + options.seconds;
  int64_t id = 0;
  for (; id == 0 || Now() < deadline; ++id) {
    const Request request = MakeRequest(false, kServePositions, &request_rng);
    cones.push_back(subtree[request.position]);
    serve(request, id);
  }
  const std::vector<double>& points = run->samples_ms["point"];
  run->op_ms = Percentile(points, kFastTail);
  NoteLatency(run, "point", points);
  if (tracer == nullptr) {
    run->Note("serve_qps",
              static_cast<double>(points.size()) / (Now() - window_start),
              "%.3f");
    return;
  }

  for (int i = 0; i < kTracedScans; ++i, ++id) {
    serve(MakeRequest(true, kServePositions, &request_rng), id);
  }
  NoteLatency(run, "scan", run->samples_ms["scan"]);
  const tiebreak::QueryPlannerStats& stats = planner->stats();
  LayerParse(run);
  LayerCount(run, "core.query_plan.point_steps", "core.query_plan.point",
             "steps");
  LayerCount(run, "core.query_plan.point_bytes", "core.query_plan.point",
             "bytes");
  run->layers["core.query_plan.cone_atoms"] = Median(cones);
  LayerTime(run, "core.query_plan.scan_s", "core.query_plan.scan");
  LayerCount(run, "core.query_plan.scan_steps", "core.query_plan.scan",
             "steps");
  run->layers["core.query_plan.plans_built"] =
      static_cast<double>(stats.plans_built);
  run->layers["core.query_plan.cache_hits"] =
      static_cast<double>(stats.plan_cache_hits);
  run->layers["core.query_plan.fallbacks"] =
      static_cast<double>(stats.fallbacks);
}

// ---------------------------------------------------------------------------
// enumerate
// ---------------------------------------------------------------------------

// Board `index` of the seed's sequence; independent of how many boards
// were drawn before it.
Board EnumerateBoard(uint64_t seed, int64_t index) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(index));
  return BipartiteBoard(kBoardPositions, kBoardDegree, &rng);
}

struct Verdict {
  std::vector<std::vector<Truth>> models;  // raw, per AtomId
  bool all_stable = true;
  std::string failure;
  std::optional<GroundingResult> grounded;
};

// Ground -> FixpointSearch -> Next() until exhausted, IsStable on each
// model. Returns the wall seconds of the whole verdict.
double RunVerdict(const Parsed& inputs, Tracer* tracer, int64_t id,
                  Verdict* verdict) {
  const Program& program = inputs.program;
  const Database& database = *inputs.database;
  Call whole(tracer, "enumerate.board", id, -1);
  const int32_t root = whole.span();
  {
    Call call(tracer, "ground", id, root);
    tiebreak::GroundingOptions options;
    options.context = call.context();
    Result<GroundingResult> grounded =
        tiebreak::Ground(program, database, options);
    call.End();
    if (!grounded.ok()) {
      verdict->failure = "Ground: " + grounded.status().ToString();
      return whole.End();
    }
    verdict->grounded.emplace(std::move(grounded).value());
    const GroundGraph& graph = verdict->grounded->graph;
    call.Count("nodes", graph.num_atoms() + graph.num_rules());
  }
  const GroundGraph& graph = verdict->grounded->graph;
  // `encode` outlives `search`, so its context governs every solver call.
  Call encode(tracer, "core.completion.encode", id, root);
  tiebreak::FixpointSearch search(program, database, graph, encode.context());
  encode.End();
  while (true) {
    Call next(tracer, "sat.search", id, root);
    std::optional<std::vector<Truth>> model = search.Next();
    next.End();
    if (!model.has_value()) break;
    Call check(tracer, "core.stable.check", id, root);
    verdict->all_stable &= tiebreak::IsStable(program, database, graph, *model);
    check.End();
    verdict->models.push_back(std::move(*model));
  }
  const double seconds = whole.End();
  if (!search.truncation().ok()) {
    verdict->failure = "search truncated: " + search.truncation().ToString();
  }
  if (tracer != nullptr) {
    const tiebreak::SatSolver& solver = search.solver();
    tracer->Count(root, "conflicts",
                  static_cast<double>(solver.num_conflicts()));
    tracer->Count(root, "propagations",
                  static_cast<double>(solver.num_propagations()));
    tracer->Count(root, "restarts", static_cast<double>(solver.num_restarts()));
    tracer->Count(root, "learnt", static_cast<double>(solver.num_learnt()));
    tracer->Count(root, "reduced", static_cast<double>(solver.num_reduced()));
    tracer->Count(root, "arena_bytes",
                  static_cast<double>(solver.arena_bytes()));
    tracer->Count(root, "models", static_cast<double>(verdict->models.size()));
  }
  return seconds;
}

void CheckVerdict(const Verdict& verdict, const Board& board,
                  const Program& program, uint64_t seed, int64_t index,
                  Run* run) {
  const std::string where = "enumerate board " + std::to_string(index) + ": ";
  if (!verdict.all_stable) run->Wrong(where + "a fixpoint is not stable");
  const GroundGraph& graph = verdict.grounded->graph;
  const tiebreak::PredId win = program.LookupPredicate("win");
  std::vector<tiebreak::AtomId> atom_of(board.size(), -1);
  for (int32_t v = 0; v < board.size(); ++v) {
    const tiebreak::ConstId id =
        program.LookupConstant("n" + std::to_string(v));
    if (win >= 0 && id >= 0) atom_of[v] = graph.atoms().Lookup(win, {id});
  }
  std::vector<std::vector<Truth>> seen;
  for (const std::vector<Truth>& model : verdict.models) {
    std::vector<Truth> truth(board.size(), Truth::kFalse);
    for (int32_t v = 0; v < board.size(); ++v) {
      if (atom_of[v] >= 0) truth[v] = model[atom_of[v]];
    }
    const std::string error = CheckTotalFixpoint(board, truth);
    if (!error.empty()) run->Wrong(where + error);
    seen.push_back(std::move(truth));
  }
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    run->Wrong(where + "a model was enumerated twice");
  }
  constexpr int64_t kPinned = sizeof(kPinnedModels) / sizeof(kPinnedModels[0]);
  if (seed == kDefaultSeed && index < kPinned &&
      static_cast<int64_t>(verdict.models.size()) != kPinnedModels[index]) {
    run->Wrong(where + std::to_string(verdict.models.size()) +
               " stable models, expected " +
               std::to_string(kPinnedModels[index]));
  }
}

void Enumerate(const Options& options, Run* run) {
  Tracer* tracer = options.trace ? &run->tracer : nullptr;
  std::vector<Board> boards;
  std::vector<std::string> texts;
  for (int64_t i = 0; i < kEnumerateBoards; ++i) {
    boards.push_back(EnumerateBoard(options.seed, i));
    texts.push_back(DumpOrderText(boards.back()));
  }
  // Set-up: build the board set from text.
  std::vector<Parsed> parsed;
  for (int r = 0; r < kSetupRepeats; ++r) {
    parsed.clear();
    const double start = Now();
    for (int64_t i = 0; i < kEnumerateBoards; ++i) {
      std::optional<Parsed> board =
          ParseInputs(texts[i], run, tracer, r * kEnumerateBoards + i);
      if (!board.has_value()) return;
      parsed.push_back(std::move(*board));
    }
    run->setup_s.push_back(Now() - start);
  }

  // Every pass decides every board of the set; passes repeat until the
  // time is up, so each board is timed at moments spread over the run.
  std::vector<std::vector<double>> board_ms(kEnumerateBoards);
  const double deadline = Now() + options.seconds;
  int64_t passes = 0;
  for (; passes == 0 || Now() < deadline; ++passes) {
    for (int64_t index = 0; index < kEnumerateBoards; ++index) {
      if (passes > 0 && Now() >= deadline) break;
      const int64_t id = passes * kEnumerateBoards + index;
      Twin(run, tracer, id, [&](Tracer* t) {
        Verdict verdict;
        const double seconds = RunVerdict(parsed[index], t, id, &verdict);
        if (!Finish(run, t, "board", verdict.failure.empty(), seconds,
                    kBoardLimitS)) {
          return -1.0;
        }
        if (t == nullptr) board_ms[index].push_back(seconds * 1e3);
        CheckVerdict(verdict, boards[index], parsed[index].program,
                     options.seed, index, run);
        return seconds;
      });
    }
  }
  std::vector<double> fast_tails;
  for (const std::vector<double>& ms : board_ms) {
    if (!ms.empty()) fast_tails.push_back(Percentile(ms, kFastTail));
  }
  run->op_ms = Median(fast_tails);
  run->Note("verdict_s", Median(run->samples_ms["board"]) / 1e3, "%.5f");
  run->Note("verdicts", static_cast<double>(run->samples_ms["board"].size()),
            "%.0f");
  run->Note("passes", static_cast<double>(passes), "%.0f");

  if (tracer == nullptr) return;
  LayerParse(run);
  LayerTime(run, "ground.s", "ground");
  LayerTime(run, "ground.t1_s", "ground");  // the boards ground serially
  LayerCount(run, "ground.util", "ground", "util");
  LayerCount(run, "ground.nodes", "ground", "nodes");
  LayerCount(run, "ground.steps", "ground", "steps");
  LayerTime(run, "core.completion.encode_s", "core.completion.encode");
  // Like the times, the solver counters are medians per board.
  const std::vector<double> search = run->tracer.SelfTimesPerId("sat.search");
  run->layers["sat.search_s"] = Median(search);
  double search_s = 0;
  for (double s : search) search_s += s;
  double propagations = 0;
  for (double p : run->tracer.Counts("enumerate.board", "propagations")) {
    propagations += p;
  }
  run->layers["sat.props_per_s"] = search_s > 0 ? propagations / search_s : 0;
  for (const char* key : {"conflicts", "propagations", "restarts", "learnt",
                          "reduced", "arena_bytes", "models"}) {
    LayerCount(run, std::string("sat.") + key, "enumerate.board", key);
  }
  run->layers["core.stable.check_s"] =
      Median(run->tracer.SelfTimesPerId("core.stable.check"));
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (options->workload == "solve" || options->workload == "serve" ||
          options->workload == "enumerate");
}

// Prints the log lines, then the result object, whose metrics map each
// name to its value. Names and units are defined in BENCHMARK.json alone;
// a per-layer metric of a layer the workload never calls is left out.
void PrintResult(const Options& options, Run* run) {
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [type, counts] : run->ops) {
    attempted += counts.first;
    failed += counts.second;
    std::printf("ops %-14s attempted %lld failed %lld\n", type.c_str(),
                static_cast<long long>(counts.first),
                static_cast<long long>(counts.second));
  }
  run->Note("failed_frac",
            attempted > 0 ? static_cast<double>(failed) / attempted : 0,
            "%.4f");
  for (const auto& [key, value] : run->summary) {
    std::printf("%s %s %s\n", options.workload.c_str(), key.c_str(),
                value.c_str());
  }
  if (!run->correct) std::printf("WRONG ANSWER: %s\n", run->error.c_str());

  std::map<std::string, double> values;
  if (options.trace) {
    values = run->layers;
    values["trace.overhead_frac"] = Median(run->overhead_ratio) - 1;
  } else {
    values["setup_s"] = Median(run->setup_s);
    values["op_ms"] = run->op_ms;
    values["peak_rss_mb"] = PeakRssMb();
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              run->correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted, 1)),
              static_cast<long long>(failed));
  const char* separator = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", separator, name.c_str(), value);
    separator = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload solve|serve|enumerate "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  perfbench::Run run;
  if (options.workload == "solve") {
    perfbench::Solve(options, &run);
  } else if (options.workload == "serve") {
    perfbench::ServeWorkload(options, &run);
  } else {
    perfbench::Enumerate(options, &run);
  }
  if (options.trace && !options.trace_out.empty() &&
      !run.tracer.WriteJson(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return 1;
  }
  perfbench::PrintResult(options, &run);
  return run.correct ? 0 : 1;
}
