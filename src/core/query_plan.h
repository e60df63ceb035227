// Demand-driven query serving: answer point queries without grounding the
// whole universe. A QueryPlanner owns the request loop's moving parts —
// adornment computation, magic-set transformation (lang/transform.h), the
// per-(predicate, adornment) plan cache, Δ's engine relations, and the
// two-phase execution that drives the existing engine/grounder/interpreter
// stack over just the query's cone:
//
//   phase 1  the plan's demand program runs through the relational engine
//            (Δ's kept relations, no EDB materialization) with the query's
//            bound constants as the $seed fact, deriving one magic relation
//            per reachable IDB predicate — the set of demanded bound-parts;
//   phase 2  the plan's guarded program (original rules + one positive
//            magic guard each, magic relations loaded as EDB facts) goes
//            through the reduced grounder, which resolves the guards at
//            binding-enumeration time — only the cone's rule instances are
//            created — then the well-founded interpreter and the indexed
//            EvaluateQuery scan finish on the small graph.
//
// The demanded cone is support-closed, so the answers — true AND undefined
// bindings — agree exactly with full grounding, including on unstratified
// programs (win/move): under the well-founded semantics an atom's value
// depends only on its backward cone through positive and negative edges,
// and the magic rules propagate demand through both. Programs the demand
// program cannot serve (engine arity cap, a safety violation, a
// stratification defect — defensively re-checked) fall back to full
// grounding with the reason recorded in the stats; QueryMode::kFullGround
// forces that baseline path for differential testing and benchmarking.
//
// What the planner amortizes, so that a served point request costs time
// proportional to its cone rather than to Δ or the constant table:
//  * per planner, Δ's engine relations (EdbRelations, engine/evaluation.h):
//    each EDB relation's column store and dedupe table is built on first
//    use, together with every probe or sorted index a request builds on
//    it, and lent read-only to phase 1 and, through the grounder, to the
//    binding-rule evaluation of phase 2;
//  * per planner, U's membership bitmap: one O(|Δ|) scan at construction,
//    so a pattern with a constant outside U is answered empty, as full
//    grounding answers it, without building or running a plan;
//  * per (query predicate, pattern adornment) — the transform depends on
//    nothing else — one CachedPlan: the transformed programs, the prepared
//    phase-2 database (Δ copied once per plan; magic relations cleared and
//    reloaded per request), and the fallback verdict;
//  * the constant table, which the planner's program, every plan's
//    programs and every grounding's binding program share copy-on-write
//    (lang/program.h): building a plan copies no names, and a pattern
//    constant new to the table copies it at most once per plan build.
// Join plans inside the engine are cached per evaluation by the engine
// itself. kFullGround requests load Δ per call, so the oracle path shares
// no kept state with the demand path.
#ifndef TIEBREAK_CORE_QUERY_PLAN_H_
#define TIEBREAK_CORE_QUERY_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/query.h"
#include "engine/evaluation.h"
#include "lang/database.h"
#include "lang/parser.h"
#include "lang/program.h"
#include "lang/transform.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// How a QueryPlanner serves one request.
enum class QueryMode : uint8_t {
  /// Ground and close the whole program, then scan — the O(universe)
  /// baseline and the correctness oracle for kDemand.
  kFullGround,
  /// Magic-set demand pipeline over the query cone (default); falls back
  /// to kFullGround, with a recorded reason, when the plan cannot be
  /// served by the demand program.
  kDemand,
};

/// Per-request knobs. PR 6 truncation contracts are preserved: a context
/// trip during any phase returns an OK QueryResult whose `truncation`
/// carries the trip Status and whose bindings are a sound prefix (possibly
/// empty — a trip before the final scan reports no bindings rather than
/// unsound ones).
struct QueryOptions {
  QueryMode mode = QueryMode::kDemand;
  /// Grounding threads for this request (GroundingOptions::num_threads:
  /// 1 = serial reference, 0 = hardware concurrency). The engine and the
  /// well-founded interpreter always run on the calling thread.
  int32_t num_threads = 1;
  /// Resource governance for this request (not owned; null = none).
  ExecutionContext* context = nullptr;
};

/// Counters one QueryPlanner accumulates across Execute calls.
struct QueryPlannerStats {
  int64_t plans_built = 0;      ///< adornment-cache misses (transform ran)
  int64_t plan_cache_hits = 0;  ///< requests served by a cached plan
  int64_t demand_queries = 0;   ///< requests the demand pipeline answered
  int64_t full_queries = 0;     ///< requests answered by full grounding
  int64_t fallbacks = 0;        ///< kDemand requests that fell back
  std::string last_fallback_reason;  ///< "" until some plan falls back
};

/// Serves pattern queries against one (program, Δ) pair. Construction
/// copies the program (sharing its constant table copy-on-write; later
/// queries intern pattern constants into the copy, never the caller's) and
/// borrows the database, which must outlive the planner and stay unmutated
/// — the planner keeps engine relations built from Δ and its cached plans
/// snapshot Δ arenas per plan. Not thread-safe: one planner per serving
/// loop (grounding still parallelizes via QueryOptions::num_threads); two
/// planners over one database keep separate relations.
class QueryPlanner {
 public:
  /// See the class comment; `database` is borrowed and must be shaped by
  /// `program` (CHECKed).
  QueryPlanner(const Program& program, const Database& database);

  /// Answers `pattern` ("win(c42)", "t(a, Y)", "p") under `options`.
  /// Constants in the pattern are bound positions; variables (repeated
  /// ones constrain equality, as in EvaluateQuery) are free. Malformed
  /// patterns fail with INVALID_ARGUMENT. EDB-predicate patterns return
  /// empty results in both modes (reduced grounding interns no EDB atoms;
  /// consult Δ directly for raw facts), and so do patterns with a constant
  /// outside the universe U (the constants of Π's rules and of Δ): no
  /// ground atom mentions one, even under a rule like
  /// `p(X) :- not q(X).`. A governing context trip returns OK with
  /// QueryResult::truncation set; see QueryOptions.
  Result<QueryResult> Execute(std::string_view pattern,
                              const QueryOptions& options = {});

  /// Counters accumulated so far.
  const QueryPlannerStats& stats() const { return stats_; }

 private:
  // One cached (predicate, adornment) plan; see the file comment.
  struct CachedPlan {
    DemandTransform transform;
    // Non-empty = this plan permanently serves via full grounding.
    std::string fallback_reason;
    // Lazily built phase-2 database (guarded-program shape, Δ loaded).
    std::unique_ptr<Database> prepared;
  };

  // Returns the cached plan for (pred, adornment), building it on miss.
  CachedPlan* GetPlan(PredId pred, const std::string& adornment);
  // The kFullGround path (also the fallback target).
  Result<QueryResult> ExecuteFull(const AtomPattern& atom,
                                  std::string_view pattern,
                                  const QueryOptions& options);
  // True when every constant of `atom` is in U (per in_universe_).
  bool ConstantsInUniverse(const Atom& atom) const;
  // The demand pipeline over a healthy plan.
  Result<QueryResult> ExecuteDemand(CachedPlan* plan, const AtomPattern& atom,
                                    std::string_view pattern,
                                    const QueryOptions& options);
  Program program_;
  const Database* database_;
  // Δ's engine relations, built on first use; see the file comment.
  EdbRelations edb_;
  // U-membership bitmap (UniverseMask), one O(|Δ|) scan at construction.
  // Constants interned later (pattern constants) are past its end, hence
  // outside U, so checking a request costs O(pattern).
  std::vector<char> in_universe_;
  std::map<std::pair<PredId, std::string>, std::unique_ptr<CachedPlan>>
      plans_;
  QueryPlannerStats stats_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_QUERY_PLAN_H_
