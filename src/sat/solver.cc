#include "sat/solver.h"

#include <algorithm>
#include <cstring>

#include "util/execution_context.h"

namespace tiebreak {

namespace {
constexpr double kActivityRescaleThreshold = 1e100;
constexpr double kActivityDecayFactor = 0.95;
constexpr float kClauseActivityRescale = 1e20f;
constexpr double kClauseActivityDecayFactor = 0.999;
constexpr int64_t kRestartBase = 100;
/// Learnt clauses with LBD <= kGlueLbd ("glue" clauses) are never deleted.
constexpr uint32_t kGlueLbd = 2;
/// Learnt clauses wider than this skip recursive minimization: the probe
/// cost scales with width, while very wide clauses (e.g. conflicts on
/// model-blocking clauses during enumeration) are deletion fodder whose
/// polish never pays for itself.
constexpr size_t kMinimizeWidthCap = 100;

/// luby(2, x): the reluctant-doubling sequence 1,1,2,1,1,2,4,1,...
int64_t LubyPow2(int64_t x) {
  int64_t size = 1;
  int32_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x %= size;
  }
  return int64_t{1} << seq;
}
}  // namespace

static_assert(sizeof(float) == sizeof(uint32_t),
              "clause activities are stored as float bits in the arena");

float SatSolver::ClauseActivity(ClauseRef ref) const {
  float activity;
  std::memcpy(&activity, &arena_[ref + 2], sizeof(activity));
  return activity;
}

void SatSolver::SetClauseActivity(ClauseRef ref, float activity) {
  std::memcpy(&arena_[ref + 2], &activity, sizeof(activity));
}

int32_t SatSolver::NewVar() {
  const int32_t var = num_vars();
  assign_.push_back(kUndef);
  phase_.push_back(kFalse);  // default polarity: false (minimal-ish models)
  level_.push_back(0);
  reason_.push_back(kReasonNone);
  activity_.push_back(0.0);
  heap_position_.push_back(-1);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  HeapInsert(var);
  return var;
}

void SatSolver::Reserve(int32_t num_vars) {
  const size_t n = static_cast<size_t>(num_vars);
  assign_.reserve(n);
  phase_.reserve(n);
  level_.reserve(n);
  reason_.reserve(n);
  activity_.reserve(n);
  heap_position_.reserve(n);
  seen_.reserve(n);
  watches_.reserve(2 * n);
  bin_watches_.reserve(2 * n);
  heap_.reserve(n);
  trail_.reserve(n);
}

ClauseRef SatSolver::AllocClause(const SatLit* lits, uint32_t size,
                                 bool learnt, uint32_t lbd) {
  TIEBREAK_CHECK_GE(size, 3u);
  TIEBREAK_CHECK_LT(arena_.size() + size + 3, size_t{1} << 31)
      << "clause arena overflow";
  const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  arena_.push_back((size << 2) | (learnt ? 1u : 0u));
  arena_.push_back(lbd);
  arena_.push_back(0);  // activity = 0.0f
  for (uint32_t k = 0; k < size; ++k) {
    arena_.push_back(static_cast<uint32_t>(lits[k]));
  }
  watches_[lits[0]].push_back(Watcher{ref, lits[1]});
  watches_[lits[1]].push_back(Watcher{ref, lits[0]});
  return ref;
}

void SatSolver::AttachBinary(SatLit a, SatLit b) {
  bin_watches_[a].push_back(b);
  bin_watches_[b].push_back(a);
}

Status SatSolver::AddClause(std::vector<SatLit> lits) {
  return AddLits(lits.data(), lits.size());
}

Status SatSolver::AddLits(const SatLit* lits, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (lits[i] < 0 || LitVar(lits[i]) >= num_vars()) {
      return Status::InvalidArgument(
          "SAT clause literal names a variable outside [0, num_vars())");
    }
  }
  if (unsat_) return Status::Ok();
  TIEBREAK_CHECK(trail_limits_.empty()) << "AddClause above decision level 0";

  // Drop duplicates and detect tautologies. The scratch buffer is reused
  // across calls, so bulk encoders pay no allocation per clause.
  add_scratch_.assign(lits, lits + n);
  std::sort(add_scratch_.begin(), add_scratch_.end());
  add_scratch_.erase(std::unique(add_scratch_.begin(), add_scratch_.end()),
                     add_scratch_.end());
  for (size_t i = 0; i + 1 < add_scratch_.size(); ++i) {
    if (add_scratch_[i + 1] == Negate(add_scratch_[i])) {
      return Status::Ok();  // tautology
    }
  }
  AttachScratch();
  return Status::Ok();
}

void SatSolver::AttachScratch() {
  // Simplify against the level-0 assignment, keeping the literals' order.
  size_t kept = 0;
  for (const SatLit lit : add_scratch_) {
    const int8_t value = ValueOfLit(lit);
    if (value == kTrue) return;  // already satisfied at level 0
    if (value == kFalse) continue;
    add_scratch_[kept++] = lit;
  }
  if (kept == 0) {
    unsat_ = true;
    return;
  }
  if (kept == 1) {
    Enqueue(add_scratch_[0], kReasonNone);
    if (Propagate() != kReasonNone) unsat_ = true;
    return;
  }
  if (kept == 2) {
    AttachBinary(add_scratch_[0], add_scratch_[1]);
    return;
  }
  problems_.push_back(AllocClause(add_scratch_.data(),
                                  static_cast<uint32_t>(kept),
                                  /*learnt=*/false, /*lbd=*/0));
}

void SatSolver::Enqueue(SatLit lit, uint32_t reason) {
  const int32_t var = LitVar(lit);
  TIEBREAK_CHECK_EQ(assign_[var], kUndef);
  assign_[var] = LitIsNeg(lit) ? kFalse : kTrue;
  level_[var] = static_cast<int32_t>(trail_limits_.size());
  reason_[var] = reason;
  trail_.push_back(lit);
}

uint32_t SatSolver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    const SatLit p = trail_[propagate_head_++];  // p just became true
    const SatLit fl = Negate(p);                 // fl just became false

    // Binary clauses live inline in their own watch lists: each entry is the
    // clause's other literal, so a visit is one value lookup, no arena line.
    for (const SatLit other : bin_watches_[fl]) {
      const int8_t value = ValueOfLit(other);
      if (value == kFalse) {
        bin_conflict_[0] = other;
        bin_conflict_[1] = fl;
        propagate_head_ = trail_.size();
        return kBinaryReason;
      }
      if (value == kUndef) {
        ++stats_propagations_;
        Enqueue(other, kBinaryReason | static_cast<uint32_t>(fl));
      }
    }

    std::vector<Watcher>& ws = watches_[fl];
    size_t read = 0;
    size_t write = 0;
    uint32_t conflict = kReasonNone;
    while (read < ws.size()) {
      const Watcher w = ws[read++];
      // Blocking literal: if it is already true the clause is satisfied and
      // the arena is never touched.
      if (ValueOfLit(w.blocker) == kTrue) {
        ws[write++] = w;
        continue;
      }
      uint32_t* c = &arena_[w.ref];
      if (static_cast<SatLit>(c[3]) == fl) std::swap(c[3], c[4]);
      // Invariant: lits[1] == fl from here on.
      const SatLit first = static_cast<SatLit>(c[3]);
      if (first != w.blocker && ValueOfLit(first) == kTrue) {
        ws[write++] = Watcher{w.ref, first};
        continue;
      }
      const uint32_t size = c[0] >> 2;
      bool rewatched = false;
      for (uint32_t k = 2; k < size; ++k) {
        const SatLit candidate = static_cast<SatLit>(c[3 + k]);
        if (ValueOfLit(candidate) != kFalse) {
          c[4] = static_cast<uint32_t>(candidate);
          c[3 + k] = static_cast<uint32_t>(fl);
          watches_[candidate].push_back(Watcher{w.ref, first});
          rewatched = true;
          break;
        }
      }
      if (rewatched) continue;
      // Clause is unit (first undef) or conflicting (first false).
      ws[write++] = Watcher{w.ref, first};
      if (ValueOfLit(first) == kFalse) {
        while (read < ws.size()) ws[write++] = ws[read++];
        conflict = w.ref;
        break;
      }
      ++stats_propagations_;
      Enqueue(first, w.ref);
    }
    ws.resize(write);
    if (conflict != kReasonNone) {
      propagate_head_ = trail_.size();
      return conflict;
    }
  }
  return kReasonNone;
}

int32_t SatSolver::Analyze(uint32_t conflict, std::vector<SatLit>* learnt,
                           uint32_t* lbd) {
  learnt->clear();
  learnt->push_back(0);  // slot for the asserting (1UIP) literal
  const int32_t current_level = static_cast<int32_t>(trail_limits_.size());
  int32_t open_paths = 0;
  SatLit pivot = kLitUndef;
  int32_t trail_index = static_cast<int32_t>(trail_.size()) - 1;
  uint32_t reason = conflict;
  to_clear_.clear();

  do {
    TIEBREAK_CHECK(reason != kReasonNone)
        << "missing reason during conflict analysis";
    SatLit binbuf[2];
    const SatLit* lits;
    uint32_t size;
    if ((reason & kBinaryReason) != 0) {
      if (pivot == kLitUndef) {
        // The conflict itself was a falsified binary clause.
        binbuf[0] = bin_conflict_[0];
        binbuf[1] = bin_conflict_[1];
      } else {
        binbuf[0] = pivot;  // implied literal, skipped below
        binbuf[1] = static_cast<SatLit>(reason & ~kBinaryReason);
      }
      lits = binbuf;
      size = 2;
    } else {
      if (ClauseLearnt(reason)) BumpClause(reason);
      lits = reinterpret_cast<const SatLit*>(arena_.data() + reason + 3);
      size = ClauseSize(reason);
    }
    for (uint32_t j = (pivot == kLitUndef ? 0u : 1u); j < size; ++j) {
      const SatLit q = lits[j];
      const int32_t var = LitVar(q);
      if (seen_[var] || level_[var] == 0) continue;
      seen_[var] = 1;
      to_clear_.push_back(var);
      BumpVar(var);
      if (level_[var] >= current_level) {
        ++open_paths;
      } else {
        learnt->push_back(q);
      }
    }
    while (!seen_[LitVar(trail_[trail_index])]) --trail_index;
    pivot = trail_[trail_index];
    --trail_index;
    reason = reason_[LitVar(pivot)];
    seen_[LitVar(pivot)] = 0;
    --open_paths;
  } while (open_paths > 0);
  (*learnt)[0] = Negate(pivot);

  // Recursive minimization: drop literals whose reason chains stay within
  // the levels already present in the clause (dominated literals). Bounded
  // by width — see kMinimizeWidthCap.
  if (learnt->size() > 1 && learnt->size() <= kMinimizeWidthCap) {
    uint32_t abstract_levels = 0;
    for (size_t i = 1; i < learnt->size(); ++i) {
      abstract_levels |= AbstractLevel(LitVar((*learnt)[i]));
    }
    size_t out = 1;
    for (size_t i = 1; i < learnt->size(); ++i) {
      const SatLit q = (*learnt)[i];
      if (reason_[LitVar(q)] == kReasonNone ||
          !LitRedundant(q, abstract_levels)) {
        (*learnt)[out++] = q;
      }
    }
    learnt->resize(out);
  }

  *lbd = ComputeLbd(*learnt);
  for (const int32_t var : to_clear_) seen_[var] = 0;

  if (learnt->size() == 1) return 0;
  // Move a literal of maximal level into the second watch position; that is
  // the backtrack level and keeps the watch invariant after jumping back.
  size_t best = 1;
  for (size_t j = 2; j < learnt->size(); ++j) {
    if (level_[LitVar((*learnt)[j])] > level_[LitVar((*learnt)[best])]) {
      best = j;
    }
  }
  std::swap((*learnt)[1], (*learnt)[best]);
  return level_[LitVar((*learnt)[1])];
}

bool SatSolver::LitRedundant(SatLit lit, uint32_t abstract_levels) {
  redundant_stack_.clear();
  redundant_stack_.push_back(lit);
  const size_t mark_base = to_clear_.size();
  while (!redundant_stack_.empty()) {
    const SatLit q = redundant_stack_.back();
    redundant_stack_.pop_back();
    const uint32_t reason = reason_[LitVar(q)];
    TIEBREAK_CHECK(reason != kReasonNone);
    SatLit binbuf[2];
    const SatLit* lits;
    uint32_t size;
    if ((reason & kBinaryReason) != 0) {
      binbuf[0] = q;  // implied position, skipped below
      binbuf[1] = static_cast<SatLit>(reason & ~kBinaryReason);
      lits = binbuf;
      size = 2;
    } else {
      lits = reinterpret_cast<const SatLit*>(arena_.data() + reason + 3);
      size = ClauseSize(reason);
    }
    for (uint32_t j = 1; j < size; ++j) {
      const int32_t var = LitVar(lits[j]);
      if (seen_[var] || level_[var] == 0) continue;
      if (reason_[var] == kReasonNone ||
          (AbstractLevel(var) & abstract_levels) == 0) {
        // Not redundant: undo the markings made during this probe. Marks
        // from successful probes stay — a proven-redundant literal is
        // dominated by the clause and acts as a cache.
        for (size_t k = mark_base; k < to_clear_.size(); ++k) {
          seen_[to_clear_[k]] = 0;
        }
        to_clear_.resize(mark_base);
        return false;
      }
      seen_[var] = 1;
      to_clear_.push_back(var);
      redundant_stack_.push_back(lits[j]);
    }
  }
  return true;
}

uint32_t SatSolver::ComputeLbd(const std::vector<SatLit>& lits) {
  if (lbd_stamp_.size() < trail_limits_.size() + 2) {
    lbd_stamp_.resize(trail_limits_.size() + 2, 0);
  }
  if (++lbd_stamp_counter_ == 0) {
    std::fill(lbd_stamp_.begin(), lbd_stamp_.end(), 0u);
    lbd_stamp_counter_ = 1;
  }
  uint32_t lbd = 0;
  for (const SatLit lit : lits) {
    const uint32_t lvl = static_cast<uint32_t>(level_[LitVar(lit)]);
    if (lvl == 0) continue;
    if (lbd_stamp_[lvl] != lbd_stamp_counter_) {
      lbd_stamp_[lvl] = lbd_stamp_counter_;
      ++lbd;
    }
  }
  return lbd;
}

void SatSolver::Backtrack(int32_t target_level) {
  if (static_cast<int32_t>(trail_limits_.size()) <= target_level) return;
  const size_t new_size = trail_limits_[target_level];
  for (size_t i = trail_.size(); i > new_size; --i) {
    const int32_t var = LitVar(trail_[i - 1]);
    phase_[var] = assign_[var];
    assign_[var] = kUndef;
    reason_[var] = kReasonNone;
    if (!HeapContains(var)) HeapInsert(var);
  }
  trail_.resize(new_size);
  trail_limits_.resize(target_level);
  propagate_head_ = trail_.size();
}

void SatSolver::BumpVar(int32_t var) {
  activity_[var] += activity_increment_;
  if (activity_[var] > kActivityRescaleThreshold) {
    for (double& a : activity_) a *= 1.0 / kActivityRescaleThreshold;
    activity_increment_ *= 1.0 / kActivityRescaleThreshold;
  }
  if (HeapContains(var)) HeapPercolateUp(heap_position_[var]);
}

void SatSolver::BumpClause(ClauseRef ref) {
  float activity = ClauseActivity(ref) +
                   static_cast<float>(clause_activity_increment_);
  if (activity > kClauseActivityRescale) {
    for (const ClauseRef r : learnts_) {
      SetClauseActivity(r, ClauseActivity(r) * (1.0f / kClauseActivityRescale));
    }
    clause_activity_increment_ *= 1.0 / kClauseActivityRescale;
    activity = ClauseActivity(ref) +
               static_cast<float>(clause_activity_increment_);
  }
  SetClauseActivity(ref, activity);
}

void SatSolver::DecayActivities() {
  activity_increment_ /= kActivityDecayFactor;
  clause_activity_increment_ /= kClauseActivityDecayFactor;
}

// --------------------------- indexed max-heap -----------------------------

void SatSolver::HeapInsert(int32_t var) {
  heap_position_[var] = static_cast<int32_t>(heap_.size());
  heap_.push_back(var);
  HeapPercolateUp(heap_position_[var]);
}

void SatSolver::HeapPercolateUp(int32_t pos) {
  const int32_t var = heap_[pos];
  while (pos > 0) {
    const int32_t parent = (pos - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[var]) break;
    heap_[pos] = heap_[parent];
    heap_position_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = var;
  heap_position_[var] = pos;
}

void SatSolver::HeapPercolateDown(int32_t pos) {
  const int32_t var = heap_[pos];
  const int32_t size = static_cast<int32_t>(heap_.size());
  while (true) {
    int32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[var]) break;
    heap_[pos] = heap_[child];
    heap_position_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = var;
  heap_position_[var] = pos;
}

int32_t SatSolver::HeapPopMax() {
  const int32_t top = heap_[0];
  heap_position_[top] = -1;
  const int32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_position_[last] = 0;
    HeapPercolateDown(0);
  }
  return top;
}

int32_t SatSolver::PickBranchVar() {
  while (!heap_.empty()) {
    const int32_t var = HeapPopMax();
    if (assign_[var] == kUndef) return var;
  }
  return -1;
}

// --------------------- clause database maintenance ------------------------

void SatSolver::ReduceDb() {
  TIEBREAK_CHECK(trail_limits_.empty());
  // Sort by quality: low LBD first, ties broken by activity. Glue clauses
  // (LBD <= 2) sort to the front and are never deleted.
  std::sort(learnts_.begin(), learnts_.end(),
            [this](ClauseRef a, ClauseRef b) {
              const uint32_t lbd_a = ClauseLbd(a);
              const uint32_t lbd_b = ClauseLbd(b);
              if (lbd_a != lbd_b) return lbd_a < lbd_b;
              return ClauseActivity(a) > ClauseActivity(b);
            });
  size_t first_reducible = 0;
  while (first_reducible < learnts_.size() &&
         ClauseLbd(learnts_[first_reducible]) <= kGlueLbd) {
    ++first_reducible;
  }
  const size_t keep =
      first_reducible + (learnts_.size() - first_reducible) / 2;
  for (size_t i = keep; i < learnts_.size(); ++i) {
    MarkDeleted(learnts_[i]);
    ++stats_reduced_;
  }
  GarbageCollect();
}

void SatSolver::GarbageCollect() {
  TIEBREAK_CHECK(trail_limits_.empty());
  // Level-0 assignments are permanent facts; conflict analysis never
  // dereferences their reasons (level-0 literals are skipped everywhere),
  // so the refs are dropped instead of remapped.
  for (const SatLit lit : trail_) reason_[LitVar(lit)] = kReasonNone;
  std::vector<uint32_t> old;
  old.swap(arena_);
  arena_.reserve(old.size());
  const auto compact = [&](std::vector<ClauseRef>* list) {
    size_t out = 0;
    for (const ClauseRef ref : *list) {
      const uint32_t header = old[ref];
      if ((header & 2u) != 0) continue;  // deleted
      const uint32_t size = header >> 2;
      // Level-0 simplification: drop satisfied clauses, strip false
      // literals. Afterwards every surviving literal is unassigned, so
      // watching the first two is sound.
      scratch_.clear();
      bool satisfied = false;
      for (uint32_t k = 0; k < size && !satisfied; ++k) {
        const SatLit lit = static_cast<SatLit>(old[ref + 3 + k]);
        const int8_t value = ValueOfLit(lit);
        if (value == kTrue) {
          satisfied = true;
        } else if (value == kUndef) {
          scratch_.push_back(lit);
        }
      }
      if (satisfied) continue;
      if (scratch_.empty()) {
        unsat_ = true;
        continue;
      }
      if (scratch_.size() == 1) {
        Enqueue(scratch_[0], kReasonNone);  // propagated after the rebuild
        continue;
      }
      if (scratch_.size() == 2) {
        AttachBinary(scratch_[0], scratch_[1]);
        continue;
      }
      const ClauseRef moved = static_cast<ClauseRef>(arena_.size());
      arena_.push_back((static_cast<uint32_t>(scratch_.size()) << 2) |
                       (header & 1u));
      arena_.push_back(old[ref + 1]);
      arena_.push_back(old[ref + 2]);
      for (const SatLit lit : scratch_) {
        arena_.push_back(static_cast<uint32_t>(lit));
      }
      (*list)[out++] = moved;
    }
    list->resize(out);
  };
  compact(&problems_);
  compact(&learnts_);
  RebuildWatches();
  if (Propagate() != kReasonNone) unsat_ = true;
}

void SatSolver::RebuildWatches() {
  for (std::vector<Watcher>& ws : watches_) ws.clear();
  const auto attach = [&](const std::vector<ClauseRef>& list) {
    for (const ClauseRef ref : list) {
      const SatLit l0 = ClauseLit(ref, 0);
      const SatLit l1 = ClauseLit(ref, 1);
      watches_[l0].push_back(Watcher{ref, l1});
      watches_[l1].push_back(Watcher{ref, l0});
    }
  };
  attach(problems_);
  attach(learnts_);
}

// ------------------------------- search -----------------------------------

SatResult SatSolver::Solve() {
  if (unsat_) {
    last_result_ = SatResult::kUnsat;
    return SatResult::kUnsat;
  }
  // Entry checkpoint: an already-tripped context returns kUnknown before
  // any search.
  if (context_ != nullptr && !context_->Checkpoint("sat", 1).ok()) {
    last_result_ = SatResult::kUnknown;
    return SatResult::kUnknown;
  }
  if (Propagate() != kReasonNone) {
    unsat_ = true;
    last_result_ = SatResult::kUnsat;
    return SatResult::kUnsat;
  }

  const int64_t budget_start = stats_conflicts_;
  int64_t conflicts_since_restart = 0;
  int64_t restart_number = 0;
  int64_t restart_limit = kRestartBase;
  std::vector<SatLit> learnt;

  while (true) {
    const uint32_t conflict = Propagate();
    if (conflict != kReasonNone) {
      ++stats_conflicts_;
      ++conflicts_since_restart;
      if (trail_limits_.empty()) {
        unsat_ = true;
        last_result_ = SatResult::kUnsat;
        return SatResult::kUnsat;
      }
      uint32_t lbd = 0;
      const int32_t back_level = Analyze(conflict, &learnt, &lbd);
      Backtrack(back_level);
      if (learnt.size() == 1) {
        Enqueue(learnt[0], kReasonNone);
      } else if (learnt.size() == 2) {
        AttachBinary(learnt[0], learnt[1]);
        ++stats_learnt_;
        Enqueue(learnt[0],
                kBinaryReason | static_cast<uint32_t>(learnt[1]));
      } else {
        const ClauseRef ref =
            AllocClause(learnt.data(), static_cast<uint32_t>(learnt.size()),
                        /*learnt=*/true, lbd);
        learnts_.push_back(ref);
        ++stats_learnt_;
        BumpClause(ref);
        Enqueue(learnt[0], ref);
      }
      DecayActivities();
      if (conflict_budget_ > 0 &&
          stats_conflicts_ - budget_start >= conflict_budget_) {
        Backtrack(0);
        last_result_ = SatResult::kUnknown;
        return SatResult::kUnknown;
      }
      // Cooperative cancellation: one relaxed load per conflict. Budget
      // and deadline work is charged at restart boundaries below.
      if (context_ != nullptr && context_->stopped()) {
        Backtrack(0);
        last_result_ = SatResult::kUnknown;
        return SatResult::kUnknown;
      }
      continue;
    }
    if (conflicts_since_restart >= restart_limit) {
      // Restart boundary: fold the restart's conflicts into the shared
      // step budget and check the deadline with a real clock read (Luby
      // restarts are frequent but cheap; the checkpoint is amortized).
      if (context_ != nullptr) {
        Status governed = context_->Checkpoint("sat", conflicts_since_restart);
        if (governed.ok()) governed = context_->CheckNow("sat");
        if (!governed.ok()) {
          Backtrack(0);
          last_result_ = SatResult::kUnknown;
          return SatResult::kUnknown;
        }
      }
      conflicts_since_restart = 0;
      ++restart_number;
      ++stats_restarts_;
      restart_limit = kRestartBase * LubyPow2(restart_number);
      Backtrack(0);
      // Learnt-database reduction happens at restart boundaries (level 0),
      // where the compacting GC can rebuild watches safely.
      if (learnts_.size() >= reduce_threshold_) {
        ReduceDb();
        reduce_threshold_ += 500;
        if (unsat_) {  // GC-time propagation found a level-0 conflict
          last_result_ = SatResult::kUnsat;
          return SatResult::kUnsat;
        }
      }
      continue;
    }
    const int32_t var = PickBranchVar();
    if (var == -1) {
      model_.assign(assign_.begin(), assign_.end());
      model_decisions_.clear();
      for (const int32_t start : trail_limits_) {
        model_decisions_.push_back(trail_[start]);
      }
      Backtrack(0);
      last_result_ = SatResult::kSat;
      return SatResult::kSat;
    }
    ++stats_decisions_;
    trail_limits_.push_back(static_cast<int32_t>(trail_.size()));
    Enqueue(MakeLit(var, phase_[var] == kTrue), kReasonNone);
  }
}

Status SatSolver::BlockModel(const std::vector<int32_t>& vars) {
  if (last_result_ != SatResult::kSat) {
    return Status::FailedPrecondition(
        "BlockModel requires the preceding Solve() to return kSat");
  }
  std::vector<SatLit> clause;
  clause.reserve(vars.size());
  for (const int32_t var : vars) {
    if (var < 0 || var >= static_cast<int32_t>(model_.size())) {
      return Status::InvalidArgument(
          "BlockModel variable has no recorded model value");
    }
    clause.push_back(MakeLit(var, model_[var] <= 0));
  }
  return AddClause(std::move(clause));
}

Status SatSolver::BlockDecisions() {
  if (last_result_ != SatResult::kSat) {
    return Status::FailedPrecondition(
        "BlockDecisions requires the preceding Solve() to return kSat");
  }
  if (unsat_) return Status::Ok();
  TIEBREAK_CHECK(trail_limits_.empty()) << "BlockDecisions above level 0";
  // The clause watches the two deepest decisions, and the decisions'
  // variables are bumped as a conflict on the clause would bump them. A
  // model reached by propagation alone costs no conflict, so without the
  // bump nothing reorders the branching heap, and every later descent
  // revisits the old blocking clauses level after level: enumerating 1,000
  // fixpoints of 360 disjoint 2-cycles scanned 1.9G clause literals (5M
  // with the bump) and ran over 10x slower than blocking on every atom.
  add_scratch_.assign(model_decisions_.rbegin(), model_decisions_.rend());
  for (SatLit& lit : add_scratch_) {
    BumpVar(LitVar(lit));
    lit = Negate(lit);
  }
  DecayActivities();
  AttachScratch();
  return Status::Ok();
}

}  // namespace tiebreak
