// Bottom-up evaluation of stratified Datalog¬ programs: per-stratum least
// fixpoints by semi-naive (delta-driven) iteration, with negation-as-failure
// on fully-computed lower strata. On stratified inputs the result is exactly
// the perfect model / well-founded model of the ground semantics (tested
// against the perfect-model reference in tests/reference_interpreters.h).
//
// Rules must be *safe* (range-restricted): every variable occurring in the
// head or in a negated body literal must also occur in some positive body
// literal. (The ground-graph semantics of core/ handles unsafe rules fine —
// the paper's program (1) is unsafe — but set-at-a-time evaluation needs
// safety; CheckSafety reports violations.)
//
// Performance contract:
//  * Relations store tuples column-major (one contiguous vector per column)
//    with incrementally maintained probe indexes (see engine/relation.h).
//  * Semi-naive deltas are row ranges, not copies: relations only append,
//    with stable row ids, so "the tuples derived last round" is exactly
//    rows [begin, end) of the global relation. Fixpoint rounds maintain no
//    second tuple store — a delta-restricted probe filters by row id
//    (index chains are newest-first, i.e. descending), and a delta scan is
//    a slice of the columns.
//  * Each (rule, delta-literal) pair is compiled once into a flat join
//    plan — the delta literal outermost, the remaining literals reordered
//    by bound-argument selectivity — and cached for the rest of the
//    evaluation; the plan is recompiled only when some joined relation's
//    cardinality drifts past 4x of its compile-time snapshot, so
//    steady-state fixpoint rounds spend zero time in plan construction.
//  * A plan whose first step has an empty probe mask is a direct scan and
//    executes batch-at-a-time: 64-row blocks of the scanned columns are
//    filtered into a selection bitmask (repeated-variable tests run as
//    contiguous single-column scans), the surviving rows' probe-key
//    columns are gathered and hashed up front, and the dedupe/index slot
//    lines they will touch are software-prefetched several keys ahead of
//    the probes that consume them. It materializes no index. Derived head
//    tuples from feedback-free plans (no join step reads the relation the
//    rule writes) are buffered and flushed through the same
//    prefetch-pipelined batch-insert path.
//  * A non-delta join step whose probe mask has a low selectivity estimate
//    (distinct keys / rows below 0.05 — i.e. hash chains longer than 20
//    rows on average) and whose relation is an EDB predicate (static during
//    evaluation) is compiled as a sort-merge join: probes binary-search a
//    sorted-key index and scan a contiguous run instead of chasing chain
//    links.
//  * The inner join loop performs no heap allocation: probe patterns,
//    bindings, selection blocks and derived tuples live in reusable
//    per-evaluator scratch, and derived head tuples are handed to an
//    internal FunctionView sink as spans into that scratch.
//  * Evaluation runs on the calling thread. Within a round, jobs run in
//    rule order over the relations as earlier jobs left them, and a plan
//    that reads its own head relation sees its own derivations at once.
//    The initial EDB load streams each database relation into its columns
//    via the uniqueness-exploiting bulk path.
#ifndef TIEBREAK_ENGINE_EVALUATION_H_
#define TIEBREAK_ENGINE_EVALUATION_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/relation.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/span.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// Returns OK iff every rule of `program` is range-restricted.
Status CheckSafety(const Program& program);

/// Maximum predicate arity the relational engine evaluates (probe masks
/// are 32-bit column sets). EvaluateStratified rejects a program whose
/// rules mention a wider predicate with INVALID_ARGUMENT (a wider relation
/// no rule mentions is loaded and passed through); the grounder plans
/// around this cap.
inline constexpr int32_t kEngineMaxArity = 32;

/// Δ's engine relations, kept across evaluations so that a caller serving
/// many requests over one database loads and indexes each EDB relation
/// once (the QueryPlanner does; see core/query_plan.h). Lent through
/// EngineOptions::edb or GroundingOptions::edb, it stands for predicates
/// [0, num_predicates()), which must keep their ids and facts in every
/// program evaluated with it. An evaluation reads each such predicate that
/// is EDB in its program and has facts from the relation kept here: the
/// first evaluation loads it through the engine's one loader and publishes
/// it only once fully built, so a context trip never leaves a partial one;
/// later evaluations borrow it read-only, together with every probe and
/// sorted index an earlier evaluation built on it, and charge their
/// ExecutionContext no bytes for it. Each borrow CHECKs the
/// relation's row count against the span passed in. Not thread-safe: one
/// owner lends it to one evaluation at a time.
class EdbRelations {
 public:
  /// Unbuilt slots for predicates [0, num_predicates).
  explicit EdbRelations(int32_t num_predicates)
      : relations_(static_cast<size_t>(num_predicates)) {}

  /// Number of predicates this object stands for.
  int32_t num_predicates() const {
    return static_cast<int32_t>(relations_.size());
  }

  /// The published relation of `predicate`, or null while unbuilt.
  const Relation* Find(PredId predicate) const {
    TIEBREAK_CHECK_GE(predicate, 0);
    TIEBREAK_CHECK_LT(predicate, num_predicates());
    return relations_[predicate].get();
  }

  /// Publishes the fully built relation of `predicate` (CHECKed unbuilt).
  void Publish(PredId predicate, Relation relation) {
    TIEBREAK_CHECK(Find(predicate) == nullptr) << "relation published twice";
    relations_[predicate] = std::make_unique<Relation>(std::move(relation));
  }

 private:
  // Heap slots: borrowed pointers stay valid while later slots publish.
  std::vector<std::unique_ptr<Relation>> relations_;
};

/// Evaluation knobs.
struct EngineOptions {
  /// Abort with RESOURCE_EXHAUSTED beyond this many derived tuples.
  int64_t max_tuples = 50'000'000;
  /// Copy the EDB relations into the result database (the default; the
  /// result then holds the complete perfect model). Callers that only
  /// read derived relations — the grounder reads just its binding
  /// predicates — set this false to skip one full copy of a potentially
  /// million-tuple EDB; the result's EDB relations are then empty.
  bool materialize_edb = true;
  /// Resource governance for this evaluation (not owned; null = none).
  /// Checkpoints fire per 64-row kernel block and per fixpoint round;
  /// derived rows charge the byte budget per sink flush or job. On a
  /// trip the evaluation unwinds at the end of the running job and returns
  /// the context's Status (kResourceExhausted / kDeadlineExceeded /
  /// kCancelled) instead of a database. The context's step/byte charges
  /// and EngineOptions::max_tuples are independent limits; both apply.
  ExecutionContext* context = nullptr;
  /// Δ's engine relations kept across evaluations (not owned; null = load
  /// every span per call). See EdbRelations.
  EdbRelations* edb = nullptr;
};

/// Per-stratum timing breakdown (filled when stats are requested).
struct StratumStats {
  int32_t stratum = 0;
  int32_t iterations = 0;       // fixpoint rounds in this stratum
  int64_t tuples_derived = 0;   // new tuples this stratum contributed
  double seconds = 0;           // wall time of this stratum
};

/// Statistics of one evaluation.
struct EngineStats {
  int64_t tuples_derived = 0;   // inserted (new) tuples
  int64_t rule_applications = 0;
  int32_t strata = 0;
  int32_t iterations = 0;  // total fixpoint rounds across strata
  int64_t plans_compiled = 0;   // join-plan compilations (incl. refreshes)
  int64_t plan_cache_hits = 0;  // evaluations served by a cached plan
  int64_t merge_join_steps = 0;  // join steps compiled onto the merge path
  std::vector<StratumStats> per_stratum;
};

/// Evaluates `program` on `database` (initial values for all relations; IDB
/// entries are allowed and participate, matching the paper's uniform
/// initialization). Fails with FAILED_PRECONDITION when the program is not
/// stratified and INVALID_ARGUMENT when a rule is unsafe. On success the
/// returned database holds the perfect model's relations (EDB copied
/// through).
Result<Database> EvaluateStratified(const Program& program,
                                    const Database& database,
                                    const EngineOptions& options = {},
                                    EngineStats* stats = nullptr);

/// Borrowed-EDB evaluation: identical semantics to the Database overload,
/// but the initial facts arrive as one FactSpan per predicate of `program`
/// (in predicate order; `facts.size()` must equal num_predicates). Each
/// span's rows must be sorted, duplicate-free, row-major of the
/// predicate's arity — exactly the layout Database::Facts() hands out —
/// and must stay valid and unmutated for the duration of the call. The
/// spans are streamed straight into the engine's relations through the
/// uniqueness-exploiting bulk path with no intermediate Database: this is
/// the grounder's zero-copy hot path (its binding programs used to copy
/// the EDB arena into a scratch Database only for evaluation to copy it
/// again into Relations).
Result<Database> EvaluateStratified(const Program& program,
                                    Span<const FactSpan> facts,
                                    const EngineOptions& options = {},
                                    EngineStats* stats = nullptr);

}  // namespace tiebreak

#endif  // TIEBREAK_ENGINE_EVALUATION_H_
