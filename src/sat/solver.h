// A modern CDCL SAT solver: flat clause arena with 32-bit references,
// two-watched literals with blocking literals, inline binary-clause watch
// lists with tagged binary reasons, 1UIP learning with recursive clause
// minimization, LBD-scored learnt-clause database reduction with compacting
// garbage collection, VSIDS-style activities on an indexed heap, phase
// saving and Luby restarts.
//
// Why a SAT solver in a Datalog paper reproduction: fixpoints of Π on Δ are
// exactly the models of the Clark completion of the ground instance
// (core/completion.h). The paper's negative results — "this alphabetic
// variant has NO fixpoint" (Theorems 2, 3, 6) — are validated empirically by
// UNSAT answers, and stable models are enumerated by filtering completion
// models through the stability check with blocking clauses. Deciding
// fixpoint existence is NP-complete [KP], so a real search engine is the
// appropriate substrate.
//
// All transformations the solver applies (level-0 simplification, learnt
// clauses, learnt-clause deletion) are equivalence-preserving over the
// original variables, so model ENUMERATION (Solve/BlockModel or
// Solve/BlockDecisions loops) sees exactly the instance's model set — the
// randomized suite in tests/sat_test.cc checks it against brute force.
//
// The solver supports incremental use: after Solve() returns kSat, callers
// may AddClause() (e.g. a blocking clause) and Solve() again.
#ifndef TIEBREAK_SAT_SOLVER_H_
#define TIEBREAK_SAT_SOLVER_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// Literal encoding: variable v >= 0; positive literal 2v, negative 2v+1.
using SatLit = int32_t;

/// Literal helpers: the positive and negative literal of a variable, the
/// variable and sign of a literal, and its negation.
inline SatLit PosLit(int32_t var) { return 2 * var; }
inline SatLit NegLit(int32_t var) { return 2 * var + 1; }
inline int32_t LitVar(SatLit lit) { return lit >> 1; }
inline bool LitIsNeg(SatLit lit) { return (lit & 1) != 0; }
inline SatLit Negate(SatLit lit) { return lit ^ 1; }
/// Builds a literal for `var` with the given polarity (true = positive).
inline SatLit MakeLit(int32_t var, bool positive) {
  return positive ? PosLit(var) : NegLit(var);
}

/// Outcome of a Solve() call.
enum class SatResult {
  kSat,
  kUnsat,
  kUnknown,  ///< conflict budget exhausted (SetConflictBudget) or the
             ///< execution context tripped (SetExecutionContext)
};

/// Word offset of a clause inside the arena. 32 bits keep a watcher entry at
/// 8 bytes; offsets are checked to stay below 2^31 so the high bit is free
/// for the binary-reason tag.
using ClauseRef = uint32_t;

/// Conflict-driven clause-learning solver.
class SatSolver {
 public:
  SatSolver() = default;

  /// Allocates a fresh variable and returns its index.
  int32_t NewVar();

  /// Capacity hint: pre-sizes the per-variable bookkeeping (watch lists,
  /// trail, heap) for `num_vars` variables. Purely an optimization for bulk
  /// encoders that know the variable count up front.
  void Reserve(int32_t num_vars);

  int32_t num_vars() const { return static_cast<int32_t>(assign_.size()); }

  /// Adds a clause (disjunction of literals). May be called before or
  /// between Solve() calls. Adding an empty (or all-false-at-level-0) clause
  /// makes the instance permanently UNSAT. Returns InvalidArgument — with
  /// the solver unchanged — if any literal names a variable outside
  /// [0, num_vars()); Ok otherwise.
  Status AddClause(std::vector<SatLit> lits);

  /// Allocation-free variant over a caller-owned span (the literals are
  /// copied into an internal scratch buffer, so bulk encoders can reuse one
  /// clause buffer across millions of additions). Same contract as
  /// AddClause.
  Status AddLits(const SatLit* lits, size_t n);

  /// Convenience single/binary/ternary clause helpers.
  Status AddUnit(SatLit a) {
    const SatLit lits[1] = {a};
    return AddLits(lits, 1);
  }
  Status AddBinary(SatLit a, SatLit b) {
    const SatLit lits[2] = {a, b};
    return AddLits(lits, 2);
  }
  Status AddTernary(SatLit a, SatLit b, SatLit c) {
    const SatLit lits[3] = {a, b, c};
    return AddLits(lits, 3);
  }

  /// Caps the number of conflicts in subsequent Solve() calls; 0 = no cap.
  void SetConflictBudget(int64_t budget) { conflict_budget_ = budget; }

  /// Governs subsequent Solve() calls by `context` (not owned; null =
  /// ungoverned): conflicts charge the context's step budget at restart
  /// boundaries, deadlines are checked there too (an unconditional clock
  /// read per restart), and every conflict polls the cooperative stop flag
  /// (one relaxed load). On a trip, Solve backtracks to level 0 — the
  /// solver stays valid and incremental — and returns kUnknown; read the
  /// context for the cause.
  void SetExecutionContext(ExecutionContext* context) { context_ = context; }

  /// Runs the CDCL search.
  SatResult Solve();

  /// Value of `var` in the last kSat model.
  bool ModelValue(int32_t var) const {
    TIEBREAK_CHECK(last_result_ == SatResult::kSat);
    TIEBREAK_CHECK_GE(var, 0);
    TIEBREAK_CHECK_LT(var, num_vars());
    return model_[var] > 0;
  }

  /// Adds a clause excluding the last model restricted to `vars` (for model
  /// enumeration over a projection). Returns FailedPrecondition if the last
  /// Solve() did not return kSat (there is no model to block — callers that
  /// race past an exhausted or budget-tripped search would otherwise block
  /// garbage), InvalidArgument on an out-of-range variable; Ok otherwise.
  Status BlockModel(const std::vector<int32_t>& vars);

  /// Adds a clause excluding exactly the last model: the negation of its
  /// decision literals, one per decision level. Unit propagation from those
  /// decisions over the clauses reproduced the whole model, so of the
  /// instance's models only that one satisfies them all. It blocks over
  /// every variable: enumerate this way only when all variables matter or
  /// the rest are functions of them. A model reached with no decision gives
  /// the empty clause, which leaves the instance UNSAT. The clause watches
  /// the two deepest decisions, and their variables' activities are bumped
  /// as a conflict on the clause would bump them. Returns
  /// FailedPrecondition if the last Solve() did not return kSat, like
  /// BlockModel; Ok otherwise.
  Status BlockDecisions();

  /// The decision literals of the last kSat model, in level order: the
  /// clause BlockDecisions adds is their negation.
  const std::vector<SatLit>& model_decisions() const {
    return model_decisions_;
  }

  /// Conflicts, decisions and propagations across all Solve() calls.
  int64_t num_conflicts() const { return stats_conflicts_; }
  int64_t num_decisions() const { return stats_decisions_; }
  int64_t num_propagations() const { return stats_propagations_; }
  /// Restarts performed across all Solve() calls.
  int64_t num_restarts() const { return stats_restarts_; }
  /// Learnt clauses recorded across all Solve() calls (size >= 2; unit
  /// learnts become level-0 assignments instead).
  int64_t num_learnt() const { return stats_learnt_; }
  /// Learnt clauses deleted by database reductions.
  int64_t num_reduced() const { return stats_reduced_; }
  /// Current clause-arena footprint (after garbage collection).
  int64_t arena_bytes() const {
    return static_cast<int64_t>(arena_.size()) * sizeof(uint32_t);
  }

 private:
  enum : int8_t { kUndef = 0, kTrue = 1, kFalse = -1 };

  static constexpr SatLit kLitUndef = -1;
  /// Reason encoding per assigned variable: kReasonNone for decisions and
  /// level-0 facts, (kBinaryReason | other_literal) for binary-clause
  /// implications, otherwise the ClauseRef of the implying arena clause.
  static constexpr uint32_t kReasonNone = 0xFFFFFFFFu;
  static constexpr uint32_t kBinaryReason = 0x80000000u;

  /// One entry in a long-clause watch list. `blocker` is some other literal
  /// of the clause; if it is already true the clause is satisfied and the
  /// arena line is never touched (the main cache win of the scheme).
  struct Watcher {
    ClauseRef ref;
    SatLit blocker;
  };

  // Arena clause layout (uint32_t words):
  //   [0] header:  size << 2 | deleted << 1 | learnt
  //   [1] LBD (learnt clauses; 0 for problem clauses)
  //   [2] activity (float bits; learnt clauses)
  //   [3..3+size) literals
  uint32_t ClauseSize(ClauseRef ref) const { return arena_[ref] >> 2; }
  bool ClauseLearnt(ClauseRef ref) const { return (arena_[ref] & 1u) != 0; }
  void MarkDeleted(ClauseRef ref) { arena_[ref] |= 2u; }
  uint32_t ClauseLbd(ClauseRef ref) const { return arena_[ref + 1]; }
  float ClauseActivity(ClauseRef ref) const;
  void SetClauseActivity(ClauseRef ref, float activity);
  SatLit ClauseLit(ClauseRef ref, uint32_t i) const {
    return static_cast<SatLit>(arena_[ref + 3 + i]);
  }
  ClauseRef AllocClause(const SatLit* lits, uint32_t size, bool learnt,
                        uint32_t lbd);

  int8_t ValueOfLit(SatLit lit) const {
    const int8_t v = assign_[LitVar(lit)];
    if (v == kUndef) return kUndef;
    return LitIsNeg(lit) ? static_cast<int8_t>(-v) : v;
  }
  uint32_t AbstractLevel(int32_t var) const {
    return 1u << (level_[var] & 31);
  }

  void AttachBinary(SatLit a, SatLit b);
  /// Adds the clause in add_scratch_ (no variable twice) at level 0: drops
  /// it if a literal is true, strips false literals, and attaches what is
  /// left in order (a long clause watches its first two literals).
  void AttachScratch();
  void Enqueue(SatLit lit, uint32_t reason);
  /// Returns the ClauseRef of a conflicting clause (kReasonNone if no
  /// conflict). Binary conflicts are materialized into bin_conflict_ and
  /// reported as kBinaryReason.
  uint32_t Propagate();
  /// 1UIP conflict analysis + recursive minimization; fills
  /// `learnt` ([0] = asserting literal), computes the clause LBD, and
  /// returns the backtrack level.
  int32_t Analyze(uint32_t conflict, std::vector<SatLit>* learnt,
                  uint32_t* lbd);
  bool LitRedundant(SatLit lit, uint32_t abstract_levels);
  uint32_t ComputeLbd(const std::vector<SatLit>& lits);
  void Backtrack(int32_t level);
  void BumpVar(int32_t var);
  void BumpClause(ClauseRef ref);
  void DecayActivities();
  int32_t PickBranchVar();

  /// Deletes the worse half of the non-glue learnt clauses (sorted by LBD,
  /// ties by activity) and garbage-collects. Level 0 only.
  void ReduceDb();
  /// Compacts the arena: drops deleted and level-0-satisfied clauses,
  /// strips false-at-level-0 literals (demoting shrunk clauses to the
  /// binary lists or the trail), remaps problems_/learnts_, and rebuilds
  /// every long-clause watch list. Level 0 only.
  void GarbageCollect();
  void RebuildWatches();

  // Indexed max-heap over variable activities.
  void HeapInsert(int32_t var);
  void HeapPercolateUp(int32_t pos);
  void HeapPercolateDown(int32_t pos);
  int32_t HeapPopMax();
  bool HeapContains(int32_t var) const { return heap_position_[var] >= 0; }

  std::vector<uint32_t> arena_;        // flat clause storage
  std::vector<ClauseRef> problems_;    // live problem clauses (size >= 3)
  std::vector<ClauseRef> learnts_;     // live learnt clauses (size >= 3)
  std::vector<std::vector<Watcher>> watches_;  // literal -> long watchers
  std::vector<std::vector<SatLit>> bin_watches_;  // literal -> other lit

  std::vector<int8_t> assign_;   // variable -> kUndef/kTrue/kFalse
  std::vector<int8_t> phase_;    // saved phases
  std::vector<int32_t> level_;   // variable -> decision level
  std::vector<uint32_t> reason_;  // variable -> tagged reason
  std::vector<SatLit> trail_;
  std::vector<int32_t> trail_limits_;  // decision-level boundaries
  size_t propagate_head_ = 0;
  SatLit bin_conflict_[2] = {kLitUndef, kLitUndef};  // binary conflict lits

  std::vector<double> activity_;
  std::vector<int32_t> heap_;           // heap of variables
  std::vector<int32_t> heap_position_;  // variable -> heap index or -1
  double activity_increment_ = 1.0;
  double clause_activity_increment_ = 1.0;
  std::vector<int8_t> seen_;            // conflict-analysis scratch flags
  std::vector<int32_t> to_clear_;       // seen_ vars to reset after Analyze
  std::vector<SatLit> redundant_stack_;  // LitRedundant worklist
  std::vector<uint32_t> lbd_stamp_;      // level -> stamp for LBD counting
  uint32_t lbd_stamp_counter_ = 0;
  std::vector<SatLit> scratch_;          // GC simplification buffer
  std::vector<SatLit> add_scratch_;      // AddLits simplification buffer

  std::vector<int8_t> model_;
  std::vector<SatLit> model_decisions_;  // per decision level, last kSat
  bool unsat_ = false;
  SatResult last_result_ = SatResult::kUnknown;
  int64_t conflict_budget_ = 0;
  size_t reduce_threshold_ = 2000;  // learnt clauses that trigger ReduceDb
  ExecutionContext* context_ = nullptr;

  int64_t stats_conflicts_ = 0;
  int64_t stats_decisions_ = 0;
  int64_t stats_propagations_ = 0;
  int64_t stats_restarts_ = 0;
  int64_t stats_learnt_ = 0;
  int64_t stats_reduced_ = 0;
};

}  // namespace tiebreak

#endif  // TIEBREAK_SAT_SOLVER_H_
