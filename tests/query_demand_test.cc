// Differential tests for demand-driven query serving (core/query_plan.h):
// on every program/pattern pair, QueryMode::kDemand must report exactly the
// true AND undefined bindings that QueryMode::kFullGround reports — the
// magic-set cone is support-closed, so the well-founded model restricted to
// it agrees with the full model, including on unstratified programs.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/query_plan.h"
#include "engine/evaluation.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/execution_context.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::Instance;
using testing_util::ParseInstance;

// Bindings as sorted "c1,c2" strings — interning order may differ between
// the planner's program copies, so comparisons go through constant names.
std::vector<std::string> Names(const Program& program,
                               const std::vector<Tuple>& bindings) {
  std::vector<std::string> names;
  names.reserve(bindings.size());
  for (const Tuple& binding : bindings) {
    std::string row;
    for (size_t i = 0; i < binding.size(); ++i) {
      if (i > 0) row += ",";
      row += program.constant_name(binding[i]);
    }
    names.push_back(std::move(row));
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Runs `pattern` through both modes of one planner (with `num_threads`) and
// EXPECTs identical true and undefined binding sets; returns the demand
// result for additional assertions.
QueryResult ExpectModesAgree(QueryPlanner* planner, const Program& program,
                             const std::string& pattern,
                             int32_t num_threads = 1) {
  QueryOptions demand_options;
  demand_options.mode = QueryMode::kDemand;
  demand_options.num_threads = num_threads;
  Result<QueryResult> demand = planner->Execute(pattern, demand_options);
  EXPECT_TRUE(demand.ok()) << pattern << ": " << demand.status().ToString();
  QueryOptions full_options;
  full_options.mode = QueryMode::kFullGround;
  full_options.num_threads = num_threads;
  Result<QueryResult> full = planner->Execute(pattern, full_options);
  EXPECT_TRUE(full.ok()) << pattern << ": " << full.status().ToString();
  if (!demand.ok() || !full.ok()) return QueryResult{};
  EXPECT_TRUE(demand->truncation.ok()) << pattern;
  EXPECT_TRUE(full->truncation.ok()) << pattern;
  EXPECT_EQ(demand->variables, full->variables) << pattern;
  EXPECT_EQ(Names(program, demand->true_bindings),
            Names(program, full->true_bindings))
      << pattern << ": true bindings diverge";
  EXPECT_EQ(Names(program, demand->undefined_bindings),
            Names(program, full->undefined_bindings))
      << pattern << ": undefined bindings diverge";
  return std::move(*demand);
}

// ---------------------------------------------------------------------------
// Curated programs.
// ---------------------------------------------------------------------------

TEST(QueryDemandTest, WinMoveChainWithDraws) {
  // A chain decides a,b,c,d alternately; the 2-cycle e<->f is a draw (both
  // undefined); g -> f wins through the drawn cycle being non-false... it
  // stays undefined too — the differential check pins all of it.
  Instance inst = ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, d). move(e, f). move(f, e). "
      "move(g, e).");
  QueryPlanner planner(inst.program, inst.database);
  for (const char* pattern :
       {"win(X)", "win(a)", "win(b)", "win(d)", "win(e)", "win(g)"}) {
    ExpectModesAgree(&planner, inst.program, pattern);
  }
  // The bound point query on the decided chain: a wins, b loses.
  QueryOptions options;
  Result<QueryResult> a = planner.Execute("win(a)", options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->true_bindings.size(), 1u);
  Result<QueryResult> b = planner.Execute("win(b)", options);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->true_bindings.empty());
  EXPECT_TRUE(b->undefined_bindings.empty());
  // The draw is undefined, not false.
  Result<QueryResult> e = planner.Execute("win(e)", options);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->undefined_bindings.size(), 1u);
}

// A predicate wider than kEngineMaxArity that no demand rule mentions
// keeps the demand path: the planner answers from the cone with no
// fallback, and full grounding, whose two rule joins on the engine,
// agrees.
TEST(QueryDemandTest, UnreadWidePredicateKeepsTheDemandPath) {
  std::string db;
  for (int32_t i = 0; i + 1 < 4000; ++i) {
    db += "move(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
          "). ";
  }
  db += "wide(c0";
  for (int32_t i = 1; i <= kEngineMaxArity; ++i) {
    db += ", c" + std::to_string(i);
  }
  db += ").";
  Instance inst = ParseInstance(
      "win(X) :- move(X, Y), not win(Y).\n"
      "two(X, Z) :- move(X, Y), move(Y, Z).",
      db);
  QueryPlanner planner(inst.program, inst.database);
  const QueryResult answer =
      ExpectModesAgree(&planner, inst.program, "win(n3990)");
  // n3990 is nine moves from the chain's end, so it wins.
  EXPECT_EQ(answer.true_bindings.size(), 1u);
  EXPECT_EQ(planner.stats().fallbacks, 0)
      << planner.stats().last_fallback_reason;
}

TEST(QueryDemandTest, TransitiveClosureBindingPatterns) {
  Instance inst = ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).",
      "e(a, b). e(b, c). e(c, d). e(d, b). e(x, y).");
  QueryPlanner planner(inst.program, inst.database);
  for (const char* pattern : {"t(a, Y)", "t(X, c)", "t(a, c)", "t(X, Y)",
                              "t(X, X)", "t(x, Y)", "t(y, Y)", "t(a, x)"}) {
    ExpectModesAgree(&planner, inst.program, pattern);
  }
  // Spot check: the cycle b-c-d reaches itself, so t(b, b) holds.
  Result<QueryResult> loop = planner.Execute("t(b, b)");
  ASSERT_TRUE(loop.ok());
  EXPECT_EQ(loop->true_bindings.size(), 1u);
}

TEST(QueryDemandTest, SameGenerationOnBalancedTree) {
  Program program = SameGenerationProgram();
  Result<Database> database = BalancedTreeDatabase(&program, 5);
  ASSERT_TRUE(database.ok());
  QueryPlanner planner(program, *database);
  for (const char* pattern :
       {"sg(n3, Y)", "sg(X, n4)", "sg(n7, n8)", "sg(n12, Y)"}) {
    ExpectModesAgree(&planner, program, pattern);
  }
}

TEST(QueryDemandTest, StratifiedTowerAndNegationRings) {
  Program tower = StratifiedTowerProgram(4);
  Result<Database> tower_db = UnarySetDatabase(&tower, "e", 6);
  ASSERT_TRUE(tower_db.ok());
  QueryPlanner tower_planner(tower, *tower_db);
  for (const char* pattern : {"level0(n2)", "level3(n0)", "level4(X)"}) {
    ExpectModesAgree(&tower_planner, tower, pattern);
  }

  // Even ring: all undefined under WF. Odd ring: all undefined too (the
  // odd cycle); the differential check is the point.
  for (const int32_t k : {4, 5}) {
    Program ring = NegationRingProgram(k);
    Database empty(ring);
    QueryPlanner ring_planner(ring, empty);
    for (int32_t i = 0; i < k; ++i) {
      ExpectModesAgree(&ring_planner, ring, "p" + std::to_string(i));
    }
  }
}

TEST(QueryDemandTest, ZeroArityAndPropositionalChains) {
  Instance inst = ParseInstance("p :- not q.\nq :- e.\nr :- p, not s.\ns :- q.",
                                "e.");
  QueryPlanner planner(inst.program, inst.database);
  for (const char* pattern : {"p", "q", "r", "s"}) {
    ExpectModesAgree(&planner, inst.program, pattern);
  }
  Result<QueryResult> q = planner.Execute("q");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->true_bindings.size(), 1u);  // q true via e
  Result<QueryResult> p = planner.Execute("p");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->true_bindings.empty());  // p false
}

TEST(QueryDemandTest, UniformDatabaseWithIdbFacts) {
  // Uniform case: Δ seeds the IDB relation win directly; demand must keep
  // those facts visible inside the cone.
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c). win(c).");
  QueryPlanner planner(inst.program, inst.database);
  for (const char* pattern : {"win(a)", "win(b)", "win(c)", "win(X)"}) {
    ExpectModesAgree(&planner, inst.program, pattern);
  }
}

TEST(QueryDemandTest, AbsentConstantsAndEdbPatterns) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b).");
  QueryPlanner planner(inst.program, inst.database);
  // A constant the universe has never seen: empty in both modes (and the
  // pattern's interning must not corrupt later queries).
  QueryResult absent =
      ExpectModesAgree(&planner, inst.program, "win(zzz)");
  EXPECT_TRUE(absent.true_bindings.empty());
  EXPECT_TRUE(absent.undefined_bindings.empty());
  ExpectModesAgree(&planner, inst.program, "win(a)");
  // EDB patterns: reduced grounding interns no EDB atoms, so both modes
  // report empty (raw facts live in Δ, not the model).
  QueryResult edb = ExpectModesAgree(&planner, inst.program, "move(a, Y)");
  EXPECT_TRUE(edb.true_bindings.empty());
}

// U is the constants of Π's rules and of Δ. A pattern constant outside U
// matches no ground atom, even under an unsafe rule like
// `p(X) :- not q(X).`, whose demand seed would put it into the cone: both
// modes answer such patterns empty, at every thread count, and build no
// plan for them. c is in U only through Δ's f(c), so the unsafe rules hold
// for it in both modes.
TEST(QueryDemandTest, PatternConstantsOutsideTheUniverse) {
  Instance inst = ParseInstance(
      "p(X) :- not q(X).\nq(X) :- e(X).\nt(X, Y) :- e(Y), not q(X).",
      "e(a). e(b). f(c).");
  for (const int32_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryPlanner planner(inst.program, inst.database);
    for (const char* pattern :
         {"p(zzz)", "t(zzz, Y)", "t(zzz, a)", "t(X, zzz)", "p(zzz)"}) {
      const QueryResult result =
          ExpectModesAgree(&planner, inst.program, pattern, threads);
      EXPECT_TRUE(result.true_bindings.empty()) << pattern;
      EXPECT_TRUE(result.undefined_bindings.empty()) << pattern;
    }
    EXPECT_EQ(planner.stats().plans_built, 0);
    const QueryResult p_c =
        ExpectModesAgree(&planner, inst.program, "p(c)", threads);
    EXPECT_EQ(p_c.true_bindings.size(), 1u);
    const QueryResult p_x =
        ExpectModesAgree(&planner, inst.program, "p(X)", threads);
    EXPECT_EQ(Names(inst.program, p_x.true_bindings),
              std::vector<std::string>{"c"});
    const QueryResult t_c =
        ExpectModesAgree(&planner, inst.program, "t(c, Y)", threads);
    EXPECT_EQ(Names(inst.program, t_c.true_bindings),
              (std::vector<std::string>{"a", "b"}));
    const QueryResult p_a =
        ExpectModesAgree(&planner, inst.program, "p(a)", threads);
    EXPECT_TRUE(p_a.true_bindings.empty());
    EXPECT_EQ(planner.stats().fallbacks, 0);
  }
}

// ---------------------------------------------------------------------------
// Thread matrix and plan-cache behavior.
// ---------------------------------------------------------------------------

// Checkpoints one request for `pattern` passes. A grounding on the pool
// checkpoints once more per emission job, when the job ends, than the
// serial path does, so a higher count at more threads shows that the
// request's grounding ran on the pool.
int64_t RequestCheckpoints(QueryPlanner* planner, const std::string& pattern,
                           QueryMode mode, int32_t num_threads) {
  ExecutionContext context;
  QueryOptions options;
  options.mode = mode;
  options.num_threads = num_threads;
  options.context = &context;
  fault_injection::CountCheckpoints();
  EXPECT_TRUE(planner->Execute(pattern, options).ok()) << pattern;
  const int64_t checkpoints = fault_injection::CheckpointsObserved();
  fault_injection::Disarm();
  return checkpoints;
}

// Two boards: on the first, 150 moves, every grounding is below two
// emission shards of binding rows and takes the serial path at any thread
// count; on the second, 3,072 moves, the full grounding and the free
// pattern's demand grounding fill them and run on the pool at 8 threads.
TEST(QueryDemandTest, ThreadMatrixAgreesOnWorkloadFamilies) {
  const std::pair<int32_t, int32_t> boards[] = {{60, 150}, {1024, 3072}};
  for (const auto& [nodes, moves] : boards) {
    SCOPED_TRACE("moves=" + std::to_string(moves));
    Program program = WinMoveProgram();
    Rng rng(7);
    Result<Database> database =
        RandomDigraphDatabase(&program, "move", nodes, moves, &rng);
    ASSERT_TRUE(database.ok());
    QueryPlanner planner(program, *database);
    for (const int32_t threads : {1, 8}) {
      ExpectModesAgree(&planner, program, "win(X)", threads);
      ExpectModesAgree(&planner, program, "win(n0)", threads);
      ExpectModesAgree(&planner, program, "win(n42)", threads);
    }
    if (moves == 3072) {
      for (const QueryMode mode : {QueryMode::kDemand, QueryMode::kFullGround}) {
        EXPECT_GT(RequestCheckpoints(&planner, "win(X)", mode, 8),
                  RequestCheckpoints(&planner, "win(X)", mode, 1));
      }
    }
  }
}

TEST(QueryDemandTest, PlanCacheHitsAcrossConstants) {
  Instance inst = ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).",
      "e(a, b). e(b, c). e(c, d).");
  QueryPlanner planner(inst.program, inst.database);
  // Same (predicate, adornment) with different constants: one plan built,
  // every later request is a cache hit.
  for (const char* pattern : {"t(a, Y)", "t(b, Y)", "t(c, Y)", "t(d, Y)"}) {
    ASSERT_TRUE(planner.Execute(pattern).ok());
  }
  EXPECT_EQ(planner.stats().plans_built, 1);
  EXPECT_EQ(planner.stats().plan_cache_hits, 3);
  EXPECT_EQ(planner.stats().demand_queries, 4);
  EXPECT_EQ(planner.stats().fallbacks, 0);
  // A different adornment is a different plan.
  ASSERT_TRUE(planner.Execute("t(X, d)").ok());
  EXPECT_EQ(planner.stats().plans_built, 2);
  // Full-grounding requests never touch the plan cache.
  QueryOptions full;
  full.mode = QueryMode::kFullGround;
  ASSERT_TRUE(planner.Execute("t(a, Y)", full).ok());
  EXPECT_EQ(planner.stats().plans_built, 2);
  EXPECT_EQ(planner.stats().full_queries, 1);
}

// A pattern constant new to the constant table, served after the plans
// were built: the planner's program copies the shared table once, the
// plans keep theirs, and every answer still agrees with full grounding.
TEST(QueryDemandTest, NewConstantAfterPlansWereBuilt) {
  Instance inst = ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n"
      "win(X) :- e(X, Y), not win(Y).",
      "e(a, b). e(b, c). e(c, a). e(c, d).");
  QueryPlanner planner(inst.program, inst.database);
  const int32_t constants = inst.program.num_constants();
  ExpectModesAgree(&planner, inst.program, "t(a, Y)");
  ExpectModesAgree(&planner, inst.program, "win(b)");
  for (const char* pattern :
       {"t(fresh, Y)", "win(fresh)", "t(X, fresh)", "win(other)"}) {
    const QueryResult result =
        ExpectModesAgree(&planner, inst.program, pattern);
    EXPECT_TRUE(result.true_bindings.empty()) << pattern;
    EXPECT_TRUE(result.undefined_bindings.empty()) << pattern;
  }
  // Known constants after the new ones, on old and new plans alike.
  for (const char* pattern : {"t(b, Y)", "win(c)", "t(X, d)", "win(X)"}) {
    ExpectModesAgree(&planner, inst.program, pattern);
  }
  EXPECT_EQ(inst.program.num_constants(), constants);
  EXPECT_EQ(inst.program.LookupConstant("fresh"), -1);
  EXPECT_EQ(planner.stats().fallbacks, 0);
}

// One planner keeps Δ's engine relations across requests: interleaved
// point, scan and absent-constant patterns, several plans (hence several
// probe masks on the kept relations) and both thread counts reuse them,
// and every answer agrees with full grounding, which loads Δ per call. A
// second planner over the same database keeps its own relations.
TEST(QueryDemandTest, KeptRelationsServeInterleavedRequests) {
  Result<Program> parsed = ParseProgram(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n"
      "win(X) :- e(X, Y), not win(Y).");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(*parsed);
  Rng rng(17);
  Result<Database> database =
      RandomDigraphDatabase(&program, "e", 40, 90, &rng);
  ASSERT_TRUE(database.ok());
  QueryPlanner first(program, *database);
  QueryPlanner second(program, *database);
  const std::vector<std::string> patterns = {
      "win(n3)", "t(n1, Y)", "win(X)",  "t(X, n5)", "win(absent)",
      "t(n7, Y)", "win(n3)", "t(X, Y)", "t(absent, Y)", "win(n11)"};
  for (int round = 0; round < 2; ++round) {
    for (const int32_t threads : {1, 4}) {
      const int32_t other_threads = threads == 1 ? 4 : 1;
      for (const std::string& pattern : patterns) {
        ExpectModesAgree(&first, program, pattern, threads);
        ExpectModesAgree(&second, program, pattern, other_threads);
      }
    }
  }
  EXPECT_EQ(first.stats().fallbacks, 0);
  EXPECT_EQ(first.stats().plans_built, 5);
}

// ---------------------------------------------------------------------------
// Randomized stratified and unstratified programs.
// ---------------------------------------------------------------------------

TEST(QueryDemandTest, RandomizedProgramSweep) {
  for (const int32_t arity : {0, 1, 2}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      Rng rng(seed * 97 + arity);
      RandomProgramOptions options;
      options.num_idb = 4;
      options.num_edb = 2;
      options.num_rules = 10;
      options.negation_probability = 0.4;
      options.arity = arity;
      Program program = RandomProgram(&rng, options);
      Result<Database> database = RandomEdbDatabase(&program, 6, 0.35, &rng);
      ASSERT_TRUE(database.ok());
      QueryPlanner planner(program, *database);
      const int32_t threads = seed % 2 == 0 ? 1 : 8;
      for (PredId p = 0; p < program.num_predicates(); ++p) {
        const std::string& name = program.predicate_name(p);
        const int32_t pred_arity = program.predicate(p).arity;
        std::string free_pattern = name;
        std::string bound_pattern = name;
        if (pred_arity == 1) {
          free_pattern += "(X)";
          bound_pattern += "(n0)";
        } else if (pred_arity == 2) {
          free_pattern += "(X, Y)";
          bound_pattern += "(n0, Y)";
        }
        ExpectModesAgree(&planner, program, free_pattern, threads);
        if (pred_arity > 0) {
          ExpectModesAgree(&planner, program, bound_pattern, threads);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Truncation contracts.
// ---------------------------------------------------------------------------

TEST(QueryDemandTest, CancelledContextReturnsTaggedEmptyPrefix) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c). move(c, d).");
  QueryPlanner planner(inst.program, inst.database);
  for (const QueryMode mode : {QueryMode::kDemand, QueryMode::kFullGround}) {
    ExecutionContext cancelled;
    cancelled.Cancel();
    QueryOptions options;
    options.mode = mode;
    options.context = &cancelled;
    Result<QueryResult> result = planner.Execute("win(X)", options);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->truncation.ok());
    EXPECT_EQ(result->truncation.code(), StatusCode::kCancelled);
    EXPECT_TRUE(result->true_bindings.empty());
    EXPECT_TRUE(result->undefined_bindings.empty());
    // The trip is per-request: the planner itself stays healthy.
    Result<QueryResult> retry = planner.Execute("win(X)", {.mode = mode});
    ASSERT_TRUE(retry.ok());
    EXPECT_TRUE(retry->truncation.ok());
    EXPECT_FALSE(retry->true_bindings.empty());
  }
  EXPECT_EQ(planner.stats().fallbacks, 0);
}

TEST(QueryDemandTest, BudgetedContextReportsSoundTruePrefix) {
  // A budget tight enough to trip somewhere mid-pipeline: whatever true
  // bindings come back must be a subset of the untruncated answer, and
  // undefined bindings must not be reported from an undecided model.
  Program program = WinMoveProgram();
  Rng rng(11);
  Result<Database> database =
      RandomDigraphDatabase(&program, "move", 80, 240, &rng);
  ASSERT_TRUE(database.ok());
  QueryPlanner planner(program, *database);
  Result<QueryResult> oracle = planner.Execute("win(X)");
  ASSERT_TRUE(oracle.ok());
  const std::vector<std::string> oracle_true =
      Names(program, oracle->true_bindings);
  for (const int64_t max_steps : {1, 64, 512, 4096}) {
    ResourceLimits limits;
    limits.max_steps = max_steps;
    ExecutionContext context(limits);
    QueryOptions options;
    options.context = &context;
    Result<QueryResult> governed = planner.Execute("win(X)", options);
    ASSERT_TRUE(governed.ok()) << governed.status().ToString();
    if (governed->truncation.ok()) continue;  // finished under budget
    for (const std::string& name :
         Names(program, governed->true_bindings)) {
      EXPECT_TRUE(std::binary_search(oracle_true.begin(), oracle_true.end(),
                                     name))
          << "unsound true binding " << name << " at budget " << max_steps;
    }
    EXPECT_TRUE(governed->undefined_bindings.empty())
        << "truncated model reported semantic undefinedness";
  }
}

TEST(QueryDemandTest, MalformedPatternsFailWithoutPoisoningPlans) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b).");
  QueryPlanner planner(inst.program, inst.database);
  for (const char* pattern : {"", "win(", "nosuch(X)", "win(X, Y)"}) {
    Result<QueryResult> result = planner.Execute(pattern);
    ASSERT_FALSE(result.ok()) << pattern;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << pattern;
  }
  EXPECT_EQ(planner.stats().plans_built, 0);
  ExpectModesAgree(&planner, inst.program, "win(a)");
}

}  // namespace
}  // namespace tiebreak
