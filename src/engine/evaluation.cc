#include "engine/evaluation.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "core/stratification.h"
#include "util/execution_context.h"
#include "util/function_view.h"
#include "util/timer.h"

namespace tiebreak {

Status CheckSafety(const Program& program) {
  for (int32_t r = 0; r < program.num_rules(); ++r) {
    const Rule& rule = program.rule(r);
    std::vector<bool> bound(rule.num_variables, false);
    for (const Literal& lit : rule.body) {
      if (!lit.positive) continue;
      for (const Term& t : lit.atom.args) {
        if (t.is_variable()) bound[t.index] = true;
      }
    }
    auto check_atom = [&](const Atom& atom, const char* where) -> Status {
      for (const Term& t : atom.args) {
        if (t.is_variable() && !bound[t.index]) {
          return Status::InvalidArgument(
              "rule " + std::to_string(r) + ": variable in " + where +
              " does not occur in any positive body literal");
        }
      }
      return Status::Ok();
    };
    Status s = check_atom(rule.head, "head");
    if (!s.ok()) return s;
    for (const Literal& lit : rule.body) {
      if (lit.positive) continue;
      s = check_atom(lit.atom, "negated literal");
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

namespace {

// Rows per block in the vectorized direct-scan kernel: one selection
// bitmask word, and a batch small enough that the gathered bind columns
// and precomputed probe hashes stay L1-resident.
constexpr int32_t kBlock = 64;
// Rows a batched derived-tuple sink buffers before flushing through
// Relation::InsertBatch (the prefetch-pipelined dedupe path).
constexpr int64_t kSinkBlockRows = 512;
// Sort-merge joins only pay off against relations big enough for chain
// walks to miss cache; below this the hash path always wins.
constexpr int64_t kMergeMinRows = 4096;
// A non-delta EDB probe step switches to a merge join when its mask's
// estimated distinct-key fraction (distinct keys / relation size) drops
// below this, i.e. when the average hash chain is longer than 20 rows.
constexpr double kMergeJoinSelectivity = 0.05;
// A cached plan's selectivity reordering re-runs when some joined
// relation's size grew or shrank by this factor versus its compile-time
// snapshot (sizes below 16 are floored so early rounds don't thrash).
constexpr int64_t kPlanRefreshDrift = 4;

struct ArgAction {
  enum Kind : uint8_t {
    kConst,     // column must equal / emits `index` (a ConstId)
    kCheckVar,  // column must equal / emits binding_[index]
    kBindVar,   // column binds variable `index` (join steps only)
    // Key-only variants: the column is part of an exact probe key (≤ 2
    // masked columns pack the masked values injectively), so it still
    // contributes `index` / binding_[index] to the probe pattern but needs
    // no per-candidate verification — every chain/run member matches it.
    kConstKey,
    kVarKey,
  };
  Kind kind;
  int32_t index;
};

struct JoinStep {
  // nullptr = the per-call delta input. Deltas are not separate relations:
  // relations are append-only with stable row ids, so "the tuples derived
  // last round" is exactly a row range [delta_begin, delta_end) of the head
  // relation, passed per execution (cached plans must not pin it — the
  // range moves every round).
  const Relation* relation = nullptr;
  uint32_t mask = 0;
  int32_t actions_begin = 0;
  int32_t actions_end = 0;
  int64_t size_snapshot = 0;  // source cardinality at compile time
  // True = probe via the sorted-key index (binary search into a run)
  // instead of hash chains. Only ever set on non-first steps over EDB
  // relations — those are static during evaluation, so ProbeSorted's
  // refresh-on-growth can never invalidate a run mid-join.
  bool merge = false;
};

// Ground-atom template for negated literals and the head: actions are
// kConst/kCheckVar only (safety guarantees all variables are bound).
struct AtomTemplate {
  PredId predicate = -1;
  int32_t actions_begin = 0;
  int32_t actions_end = 0;
};

// Columnar metadata for the batch direct-scan kernel (only populated when
// the plan's first step is a direct scan; all columns refer to the scanned
// literal).
//
// A repeated variable within the scanned literal (e.g. t(X, X)): column
// `column` must equal column `eq_column`. Evaluated as a contiguous
// two-column compare into the selection bitmask.
struct ScanEq {
  int32_t column = 0;
  int32_t eq_column = 0;
};
// Column `column` binds variable `var`; the block kernel gathers the
// column's values up front so the resolve loop never re-touches the
// scanned relation (whose columns may reallocate while derived tuples are
// inserted).
struct ScanBind {
  int32_t column = 0;
  int32_t var = 0;
};
// One masked pattern position of the fused second step: either a constant
// or the `bind_slot`-th gathered scan column.
struct KeySource {
  int32_t pattern_column = 0;
  bool from_const = false;
  ConstId value = -1;
  int32_t bind_slot = 0;
};

/// One rule body compiled to a flat join plan for a fixed delta literal.
/// The delta literal (when present) is always the first join step — it is
/// the novelty driver of a semi-naive round and is typically the smallest
/// input. The remaining positive literals are greedily reordered by
/// selectivity (most bound argument positions first; ties go to the
/// smaller relation), and each literal is lowered to a JoinStep whose
/// argument actions (constant check / bound-variable check / fresh-variable
/// bind) live in one flat action array.
struct CompiledPlan {
  std::vector<ArgAction> actions;
  std::vector<JoinStep> steps;
  std::vector<AtomTemplate> negatives;
  AtomTemplate head;
  int32_t num_variables = 0;
  size_t max_arity = 0;
  /// True when the first join step has an empty probe mask: it is then
  /// executed as a batch direct column scan (descending row order —
  /// identical to the newest-first probe order — with no index
  /// materialization).
  bool direct_scan = false;
  // Block-kernel metadata for the direct scan (see the Scan* types).
  std::vector<ScanEq> scan_eqs;
  std::vector<ScanBind> scan_binds;
  // When the second step is a hash probe whose key is fully determined by
  // the scanned columns and constants, the block kernel hashes all probe
  // keys of a block up front and prefetches their slot lines (`fused_hash`
  // = the gather below is valid).
  std::vector<KeySource> fused_key;
  bool fused_hash = false;
};

/// Compiles rule bodies into CompiledPlans and caches them per
/// (rule, delta-literal). A cached plan is reused until some joined
/// relation's cardinality drifts past kPlanRefreshDrift of the snapshot
/// taken when the plan was compiled; then the selectivity reordering is
/// re-run.
class PlanCache {
 public:
  PlanCache(const Program& program,
            const std::vector<const Relation*>& relations)
      : program_(program),
        relations_(relations),
        plans_(program.num_rules()) {}

  /// Returns the plan for (rule_index, delta_literal), compiling or
  /// refreshing it if needed. `delta_size` is the row count of the delta
  /// range the delta literal covers (0 when delta_literal == -1).
  const CompiledPlan& Get(int32_t rule_index, int32_t delta_literal,
                          int64_t delta_size, EngineStats* stats) {
    std::vector<std::unique_ptr<CompiledPlan>>& slots = plans_[rule_index];
    const size_t slot = static_cast<size_t>(delta_literal + 1);
    if (slots.size() <= slot) slots.resize(slot + 1);
    std::unique_ptr<CompiledPlan>& plan = slots[slot];
    if (plan != nullptr && !Drifted(*plan, delta_size)) {
      ++stats->plan_cache_hits;
      return *plan;
    }
    if (plan == nullptr) plan = std::make_unique<CompiledPlan>();
    Compile(program_.rule(rule_index), delta_literal, delta_size, plan.get());
    ++stats->plans_compiled;
    for (const JoinStep& step : plan->steps) {
      if (step.merge) ++stats->merge_join_steps;
    }
    return *plan;
  }

 private:
  /// True when some step's source relation grew or shrank by more than the
  /// refresh factor relative to its compile-time snapshot (sizes below 16
  /// are floored: reordering tiny relations is never worth a recompile).
  bool Drifted(const CompiledPlan& plan, int64_t delta_size) const {
    for (const JoinStep& step : plan.steps) {
      const int64_t current =
          step.relation != nullptr ? step.relation->size() : delta_size;
      const int64_t lo = std::max<int64_t>(
          std::min(current, step.size_snapshot), 16);
      const int64_t hi = std::max(current, step.size_snapshot);
      if (hi > kPlanRefreshDrift * lo) return true;
    }
    return false;
  }

  /// True when a non-first probe step over `predicate` should run as a
  /// sort-merge join, by the selectivity estimate. Restricted to EDB
  /// predicates — they are static during evaluation, so the sorted index
  /// never refreshes (and never invalidates a run) while a join holds runs
  /// open.
  bool ChooseMergeJoin(PredId predicate, uint32_t mask) const {
    if (mask == 0 || !program_.IsEdb(predicate)) return false;
    const Relation& relation = *relations_[predicate];
    if (relation.size() < kMergeMinRows) return false;
    const int64_t distinct = relation.DistinctKeysEstimate(mask);
    return distinct >= 0 &&
           static_cast<double>(distinct) <
               kMergeJoinSelectivity * static_cast<double>(relation.size());
  }

  void Compile(const Rule& rule, int32_t delta_literal, int64_t delta_size,
               CompiledPlan* plan) {
    plan->actions.clear();
    plan->steps.clear();
    plan->negatives.clear();
    plan->num_variables = rule.num_variables;
    plan->max_arity = rule.head.args.size();
    var_bound_.assign(rule.num_variables, false);

    auto emit_step = [&](int32_t body_index) {
      const Atom& atom = rule.body[body_index].atom;
      JoinStep step;
      step.relation = (body_index == delta_literal)
                          ? nullptr
                          : relations_[atom.predicate];
      step.size_snapshot = (body_index == delta_literal)
                               ? delta_size
                               : relations_[atom.predicate]->size();
      step.actions_begin = static_cast<int32_t>(plan->actions.size());
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& t = atom.args[i];
        if (t.is_constant()) {
          step.mask |= 1u << i;
          plan->actions.push_back({ArgAction::kConst, t.index});
        } else if (var_bound_[t.index]) {
          // Bound by an earlier literal: part of the probe key. A repeat
          // within this literal is checked but cannot be probed on (its
          // value is only known while scanning a candidate row).
          bool earlier_in_literal = false;
          for (size_t j = 0; j < i; ++j) {
            const Term& prev = atom.args[j];
            if (prev.is_variable() && prev.index == t.index) {
              earlier_in_literal = true;
              break;
            }
          }
          if (!earlier_in_literal) step.mask |= 1u << i;
          plan->actions.push_back({ArgAction::kCheckVar, t.index});
        } else {
          var_bound_[t.index] = true;
          plan->actions.push_back({ArgAction::kBindVar, t.index});
        }
      }
      step.actions_end = static_cast<int32_t>(plan->actions.size());
      if (!plan->steps.empty() && body_index != delta_literal) {
        step.merge = ChooseMergeJoin(atom.predicate, step.mask);
      }
      // With ≤ 2 masked columns the probe key packs the masked values
      // exactly, so every chain (or sorted-run) candidate already matches
      // them: demote the masked checks to key-only actions (pattern fill
      // without per-candidate verification).
      if (step.mask != 0 && Relation::ExactProbeKeys(step.mask)) {
        int32_t column = 0;
        for (int32_t a = step.actions_begin; a < step.actions_end;
             ++a, ++column) {
          if ((step.mask & (1u << column)) == 0) continue;
          ArgAction& action = plan->actions[a];
          action.kind = action.kind == ArgAction::kConst ? ArgAction::kConstKey
                                                         : ArgAction::kVarKey;
        }
      }
      plan->steps.push_back(step);
    };

    pending_.clear();
    for (int32_t b = 0; b < static_cast<int32_t>(rule.body.size()); ++b) {
      if (rule.body[b].positive && b != delta_literal) pending_.push_back(b);
      plan->max_arity = std::max(plan->max_arity, rule.body[b].atom.args.size());
    }
    // The delta literal always goes first (see CompiledPlan); the rest are
    // ordered greedily by selectivity.
    if (delta_literal >= 0) emit_step(delta_literal);
    while (!pending_.empty()) {
      size_t best_at = 0;
      int64_t best_bound = -1;
      int64_t best_size = 0;
      for (size_t i = 0; i < pending_.size(); ++i) {
        const Atom& atom = rule.body[pending_[i]].atom;
        int64_t bound_args = 0;
        for (const Term& t : atom.args) {
          if (t.is_constant() || var_bound_[t.index]) ++bound_args;
        }
        const Relation& rel = *relations_[atom.predicate];
        if (bound_args > best_bound ||
            (bound_args == best_bound && rel.size() < best_size)) {
          best_at = i;
          best_bound = bound_args;
          best_size = rel.size();
        }
      }
      const int32_t body_index = pending_[best_at];
      pending_.erase(pending_.begin() + best_at);
      emit_step(body_index);
    }
    plan->direct_scan = !plan->steps.empty() && plan->steps[0].mask == 0;
    CompileVectorMetadata(plan);

    auto add_template = [&](const Atom& atom) {
      AtomTemplate tmpl;
      tmpl.predicate = atom.predicate;
      tmpl.actions_begin = static_cast<int32_t>(plan->actions.size());
      for (const Term& t : atom.args) {
        plan->actions.push_back({t.is_constant() ? ArgAction::kConst
                                                 : ArgAction::kCheckVar,
                                 t.index});
      }
      tmpl.actions_end = static_cast<int32_t>(plan->actions.size());
      return tmpl;
    };
    for (const Literal& lit : rule.body) {
      if (!lit.positive) plan->negatives.push_back(add_template(lit.atom));
    }
    plan->head = add_template(rule.head);
  }

  // Lowers the direct-scan step (and, when possible, the following probe
  // step's key gather) to columnar form. A direct scan has mask 0, so its
  // actions are only kBindVar plus kCheckVar repeats of variables bound
  // earlier in the same literal — constants and cross-literal checks would
  // have set mask bits and taken the probe path instead.
  void CompileVectorMetadata(CompiledPlan* plan) const {
    plan->scan_eqs.clear();
    plan->scan_binds.clear();
    plan->fused_key.clear();
    plan->fused_hash = false;
    if (!plan->direct_scan) return;
    const JoinStep& scan = plan->steps[0];
    int32_t column = 0;
    for (int32_t a = scan.actions_begin; a < scan.actions_end;
         ++a, ++column) {
      const ArgAction& action = plan->actions[a];
      if (action.kind == ArgAction::kBindVar) {
        plan->scan_binds.push_back({column, action.index});
      } else {
        // kCheckVar repeat: find the column that bound the same variable.
        int32_t eq_column = -1;
        int32_t c = 0;
        for (int32_t b = scan.actions_begin; b < a; ++b, ++c) {
          if (plan->actions[b].kind == ArgAction::kBindVar &&
              plan->actions[b].index == action.index) {
            eq_column = c;
            break;
          }
        }
        TIEBREAK_CHECK_GE(eq_column, 0);
        plan->scan_eqs.push_back({column, eq_column});
      }
    }
    if (plan->steps.size() < 2) return;
    const JoinStep& probe = plan->steps[1];
    if (probe.mask == 0 || probe.merge || probe.relation == nullptr) return;
    column = 0;
    for (int32_t a = probe.actions_begin; a < probe.actions_end;
         ++a, ++column) {
      if ((probe.mask & (1u << column)) == 0) continue;
      const ArgAction& action = plan->actions[a];
      KeySource source;
      source.pattern_column = column;
      if (action.kind == ArgAction::kConst ||
          action.kind == ArgAction::kConstKey) {
        source.from_const = true;
        source.value = action.index;
      } else {
        int32_t bind_slot = -1;
        for (size_t s = 0; s < plan->scan_binds.size(); ++s) {
          if (plan->scan_binds[s].var == action.index) {
            bind_slot = static_cast<int32_t>(s);
            break;
          }
        }
        // Masked variables of step 1 are always bound by step 0 (nothing
        // else ran); bail out defensively if not.
        if (bind_slot < 0) return;
        source.bind_slot = bind_slot;
      }
      plan->fused_key.push_back(source);
    }
    plan->fused_hash = true;
  }

  const Program& program_;
  const std::vector<const Relation*>& relations_;
  // plans_[rule][1 + delta_literal]; slot 0 is the full (delta = -1) plan.
  std::vector<std::vector<std::unique_ptr<CompiledPlan>>> plans_;
  // Compiler scratch (reused so steady-state refreshes stop allocating).
  std::vector<int32_t> pending_;
  std::vector<bool> var_bound_;
};

/// Executes CompiledPlans: the backtracking join over one rule body. One
/// instance serves a whole evaluation; its bindings, probe pattern and
/// block scratch are reused across executions.
class RuleEvaluator {
 public:
  using Sink = FunctionView<void(const ConstId*)>;

  explicit RuleEvaluator(const std::vector<const Relation*>& relations)
      : relations_(relations) {}

  /// Runs `plan`: a direct-scan plan through the batch kernel
  /// (VectorScan), any other through the recursive join. A null-relation
  /// join step (the delta literal) ranges over `delta_relation` restricted
  /// to the step-0 row range. Each derived head tuple is passed to `sink`
  /// as a pointer to head-arity ids (valid only for the duration of the
  /// call).
  ///
  /// `range_begin`/`range_end` restrict the *first* join step to rows
  /// [range_begin, range_end) of its source relation (-1 = unbounded on
  /// that side): the semi-naive delta, i.e. the range of rows published
  /// last round (index chains are newest-first, so a probe filters by row
  /// id). A full direct scan with range_end = -1 is bounded at entry, so
  /// rows inserted by this very execution are not rescanned — the same
  /// snapshot semantics Probe gives.
  /// `stop` is the cooperative abort for the tuple budget: when it becomes
  /// true (set by a sink that detected overflow), the join stops matching
  /// rows, bounding how far past the budget any single job can run.
  /// `inner_static` promises that no relation read by steps ≥ 1 gains rows
  /// during this execution (no feedback). The batch kernel then resolves a
  /// whole block's chain heads before walking any chain, deepening the
  /// prefetch pipeline.
  void Execute(const CompiledPlan& plan, const Relation* delta_relation,
               int32_t range_begin, int32_t range_end, bool inner_static,
               Sink sink, int64_t* applications, const bool* stop,
               ExecutionContext* ctx = nullptr) {
    plan_ = &plan;
    inner_static_ = inner_static;
    delta_ = delta_relation;
    range_begin_ = range_begin;
    range_end_ = range_end;
    sink_ = &sink;
    applications_ = applications;
    stop_ = stop;
    ctx_ = ctx;
    binding_.assign(plan.num_variables, -1);
    if (scratch_.size() < plan.max_arity) scratch_.resize(plan.max_arity);
    if (pattern_.size() < plan.max_arity) pattern_.resize(plan.max_arity);
    if (plan.direct_scan) {
      VectorScan();
    } else {
      Join(0);
    }
  }

 private:
  // Instantiates a ground-atom template into scratch_.
  void FillScratch(const AtomTemplate& tmpl) {
    ConstId* out = scratch_.data();
    for (int32_t a = tmpl.actions_begin; a < tmpl.actions_end; ++a) {
      const ArgAction& action = plan_->actions[a];
      *out++ = action.kind == ArgAction::kConst ? action.index
                                                : binding_[action.index];
    }
  }

  // All positive steps matched: test the negated literals (safety
  // guarantees they are ground now) and emit the head tuple.
  void EmitMatch() {
    ++*applications_;
    for (const AtomTemplate& neg : plan_->negatives) {
      FillScratch(neg);
      if (relations_[neg.predicate]->Contains(scratch_.data())) return;
    }
    FillScratch(plan_->head);
    (*sink_)(scratch_.data());
  }

  void Join(size_t depth) {
    if (depth == plan_->steps.size()) {
      EmitMatch();
      return;
    }
    const JoinStep& step = plan_->steps[depth];
    const Relation& relation =
        step.relation != nullptr ? *step.relation : *delta_;
    ConstId* pattern = pattern_.data();
    {
      int32_t column = 0;
      for (int32_t a = step.actions_begin; a < step.actions_end;
           ++a, ++column) {
        const ArgAction& action = plan_->actions[a];
        if (action.kind == ArgAction::kConst ||
            action.kind == ArgAction::kConstKey) {
          pattern[column] = action.index;
        } else if (action.kind == ArgAction::kCheckVar ||
                   action.kind == ArgAction::kVarKey) {
          pattern[column] = binding_[action.index];
        }
      }
    }
    if (step.merge) {
      // Sort-merge path: binary search the sorted-key index, scan the
      // contiguous run. Merge steps are never the first step, so no range
      // restriction applies.
      for (const int32_t row : relation.ProbeSorted(step.mask, pattern)) {
        MatchRow(step, relation, row);
      }
      return;
    }
    if (depth == 0 && (range_begin_ >= 0 || range_end_ >= 0)) {
      // Range-restricted probe (a delta literal with a non-empty mask):
      // chains are newest-first, i.e. strictly descending row ids, so rows
      // past the range end are skipped and the walk stops below the start.
      int32_t chain_rows = 0;
      for (const int32_t row : relation.Probe(step.mask, pattern)) {
        if (range_end_ >= 0 && row >= range_end_) continue;
        if (row < range_begin_) break;
        if (ctx_ != nullptr && (++chain_rows & (kBlock - 1)) == 0 &&
            !ctx_->Checkpoint("engine", kBlock).ok()) {
          return;
        }
        MatchRow(step, relation, row);
      }
      return;
    }
    if (depth == 0 && ctx_ != nullptr) {
      int32_t chain_rows = 0;
      for (const int32_t row : relation.Probe(step.mask, pattern)) {
        if ((++chain_rows & (kBlock - 1)) == 0 &&
            !ctx_->Checkpoint("engine", kBlock).ok()) {
          return;
        }
        MatchRow(step, relation, row);
      }
      return;
    }
    for (const int32_t row : relation.Probe(step.mask, pattern)) {
      MatchRow(step, relation, row);
    }
  }

  // The batch-at-a-time direct scan: process the step-0 row range in
  // 64-row blocks, newest block first. Per block: (1) evaluate the
  // repeated-variable filters as contiguous column compares into a
  // selection bitmask, (2) gather the bind columns into block scratch
  // (after this the scanned relation is never re-read, so inserts that
  // reallocate its columns during resolution are harmless), (3) when the
  // second step is a fused hash probe, compute all surviving rows' probe-
  // key hashes and prefetch their slot lines, then (4) resolve rows
  // highest-first (the newest-first probe order), probing with the
  // precomputed hashes.
  void VectorScan() {
    const JoinStep& step0 = plan_->steps[0];
    const Relation& scan =
        step0.relation != nullptr ? *step0.relation : *delta_;
    const int32_t end =
        range_end_ >= 0 ? range_end_ : static_cast<int32_t>(scan.size());
    const int32_t begin = range_begin_ >= 0 ? range_begin_ : 0;
    const size_t num_binds = plan_->scan_binds.size();
    if (block_binds_.size() < num_binds * kBlock) {
      block_binds_.resize(num_binds * kBlock);
    }
    const bool fused = plan_->fused_hash;
    const JoinStep* step1 =
        plan_->steps.size() > 1 ? &plan_->steps[1] : nullptr;
    const Relation* probe_relation = fused ? step1->relation : nullptr;
    Relation::ProbeRef probe_ref;
    if (fused) probe_ref = probe_relation->ProbeRefFor(step1->mask);
    const bool leaf = plan_->steps.size() == 1;

    for (int32_t block_end = end; block_end > begin;) {
      const int32_t block_begin = std::max(begin, block_end - kBlock);
      const int32_t n = block_end - block_begin;
      // Resource checkpoint once per 64-row block: one relaxed fetch_add
      // amortized over the whole block's filter/gather/probe work.
      if (ctx_ != nullptr && !ctx_->Checkpoint("engine", n).ok()) return;
      uint64_t sel =
          n == kBlock ? ~uint64_t{0} : (uint64_t{1} << n) - uint64_t{1};
      for (const ScanEq& eq : plan_->scan_eqs) {
        const ConstId* a = scan.ColumnData(eq.column) + block_begin;
        const ConstId* b = scan.ColumnData(eq.eq_column) + block_begin;
        uint64_t keep = 0;
        for (int32_t i = 0; i < n; ++i) {
          keep |= uint64_t{a[i] == b[i]} << i;
        }
        sel &= keep;
      }
      if (sel != 0) {
        for (size_t slot = 0; slot < num_binds; ++slot) {
          const ConstId* column =
              scan.ColumnData(plan_->scan_binds[slot].column) + block_begin;
          ConstId* out = block_binds_.data() + slot * kBlock;
          for (int32_t i = 0; i < n; ++i) out[i] = column[i];
        }
        if (fused) {
          ConstId* pattern = pattern_.data();
          for (uint64_t bits = sel; bits != 0; bits &= bits - 1) {
            const int32_t i = std::countr_zero(bits);
            for (const KeySource& source : plan_->fused_key) {
              pattern[source.pattern_column] =
                  source.from_const
                      ? source.value
                      : block_binds_[source.bind_slot * kBlock + i];
            }
            block_hashes_[i] =
                probe_relation->ProbeKey(step1->mask, pattern);
            probe_relation->PrefetchProbe(probe_ref, block_hashes_[i]);
          }
          if (inner_static_) {
            // Static inner relation: resolve every chain head of the block
            // before walking any chain (the slot lines are in flight from
            // the prefetch above), and prefetch each head row. By the time
            // the resolve loop reaches a row, its chain link and column
            // entries are usually resident.
            for (uint64_t bits = sel; bits != 0; bits &= bits - 1) {
              const int32_t i = std::countr_zero(bits);
              const int32_t head =
                  probe_relation->ProbeChainHead(probe_ref, block_hashes_[i]);
              block_heads_[i] = head;
              if (head >= 0) {
                probe_relation->PrefetchChainRow(probe_ref, head);
              }
            }
          }
        }
        for (uint64_t bits = sel; bits != 0;) {
          const int32_t i = 63 - std::countl_zero(bits);
          bits &= ~(uint64_t{1} << i);
          if (*stop_) return;
          for (size_t slot = 0; slot < num_binds; ++slot) {
            binding_[plan_->scan_binds[slot].var] =
                block_binds_[slot * kBlock + i];
          }
          if (leaf) {
            EmitMatch();
          } else if (fused) {
            // Manual chain walk with one-candidate-ahead prefetch: the
            // next link and the candidate's column entries are requested
            // while the current candidate is processed, hiding the
            // pointer-chase latency of long chains. Chain links are
            // immutable once written (new rows prepend at heads), so
            // reading the link before recursing is safe even when the
            // recursion inserts into the probed relation.
            int32_t row =
                inner_static_
                    ? block_heads_[i]
                    : probe_relation->ProbeChainHead(probe_ref,
                                                     block_hashes_[i]);
            while (row >= 0) {
              const int32_t ahead =
                  probe_relation->NextInChain(probe_ref, row);
              if (ahead >= 0) {
                probe_relation->PrefetchChainRow(probe_ref, ahead);
              }
              MatchRow(*step1, *probe_relation, row);
              row = ahead;
            }
          } else {
            Join(1);
          }
        }
      }
      block_end = block_begin;
    }
  }

  /// Checks row `row` against `step`'s actions (binding fresh variables),
  /// recurses on a match, then unbinds this step's variables. Variables are
  /// statically owned by the step that binds them, so unconditionally
  /// unbinding the step's kBindVar set is exact.
  void MatchRow(const JoinStep& step, const Relation& relation, int32_t row) {
    if (*stop_) return;
    const size_t depth = static_cast<size_t>(&step - plan_->steps.data());
    bool match = true;
    int32_t column = 0;
    for (int32_t a = step.actions_begin; match && a < step.actions_end;
         ++a, ++column) {
      const ArgAction& action = plan_->actions[a];
      switch (action.kind) {
        case ArgAction::kConst:
          match = relation.At(row, column) == action.index;
          break;
        case ArgAction::kCheckVar:
          match = relation.At(row, column) == binding_[action.index];
          break;
        case ArgAction::kBindVar:
          binding_[action.index] = relation.At(row, column);
          break;
        case ArgAction::kConstKey:
        case ArgAction::kVarKey:
          break;
      }
    }
    if (match) Join(depth + 1);
    for (int32_t a = step.actions_begin; a < step.actions_end; ++a) {
      if (plan_->actions[a].kind == ArgAction::kBindVar) {
        binding_[plan_->actions[a].index] = -1;
      }
    }
  }

  const std::vector<const Relation*>& relations_;
  const CompiledPlan* plan_ = nullptr;
  const Relation* delta_ = nullptr;
  int32_t range_begin_ = -1;
  int32_t range_end_ = -1;
  const Sink* sink_ = nullptr;
  int64_t* applications_ = nullptr;
  const bool* stop_ = nullptr;
  ExecutionContext* ctx_ = nullptr;

  // Hot-path scratch: variable bindings, probe pattern, ground-atom buffer,
  // and the batch kernel's per-block gathered binds and probe hashes.
  std::vector<ConstId> binding_;
  std::vector<ConstId> pattern_;
  std::vector<ConstId> scratch_;
  std::vector<ConstId> block_binds_;
  uint64_t block_hashes_[kBlock] = {};
  int32_t block_heads_[kBlock] = {};
  bool inner_static_ = false;
};

/// One (rule, delta-literal) evaluation of a fixpoint round.
struct RoundJob {
  int32_t rule = -1;
  int32_t delta_literal = -1;
  PredId head = -1;
  // The delta literal's source relation (deltas are row ranges of the
  // global relation, never copies); null for full-evaluation jobs.
  const Relation* delta_relation = nullptr;
  // Step-0 row range this job covers: the delta range for delta jobs,
  // (-1, -1) = everything.
  int32_t range_begin = -1;
  int32_t range_end = -1;
};

/// True when some non-first join step of `plan` reads `head` — i.e. tuples
/// this rule derives can feed its own join within one execution (the
/// transitive-closure round-0 shape). Feedback-free executions may buffer
/// derived tuples and flush them in batches; feedback executions must
/// insert immediately so the still-running join observes them (what lets a
/// chain close in one pass). Step 0 never feeds back: direct scans and
/// probes are both bounded at entry (see RuleEvaluator::Execute).
bool PlanFeedsBack(const CompiledPlan& plan, const Relation* head) {
  for (size_t i = 1; i < plan.steps.size(); ++i) {
    if (plan.steps[i].relation == head) return true;
  }
  return false;
}

}  // namespace

Result<Database> EvaluateStratified(const Program& program,
                                    const Database& database,
                                    const EngineOptions& options,
                                    EngineStats* stats) {
  // The Database overload is a thin shim over the borrowed-span path: the
  // per-predicate arenas are already in the span layout, so borrowing them
  // costs one pointer per predicate.
  TIEBREAK_CHECK_EQ(program.num_predicates(), database.num_predicates())
      << "database was built for a different program";
  std::vector<FactSpan> facts(program.num_predicates());
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    facts[p] = database.Facts(p);
  }
  return EvaluateStratified(
      program, Span<const FactSpan>(facts.data(), facts.size()), options,
      stats);
}

Result<Database> EvaluateStratified(const Program& program,
                                    Span<const FactSpan> facts,
                                    const EngineOptions& options,
                                    EngineStats* stats) {
  TIEBREAK_CHECK_EQ(static_cast<int32_t>(facts.size()),
                    program.num_predicates())
      << "one FactSpan per predicate required";
  Status safety = CheckSafety(program);
  if (!safety.ok()) return safety;
  const auto strata = ComputeStrata(program);
  if (!strata.has_value()) {
    return Status::FailedPrecondition(
        "program is not stratified; use the ground-graph interpreters");
  }
  EngineStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  const int32_t num_preds = program.num_predicates();
  // Probe masks are 32-bit column sets, so the set-at-a-time engine caps
  // the arity of every predicate a rule mentions at kEngineMaxArity (the
  // ground-graph interpreters in core/ have no such cap). A wider relation
  // no rule reads only loads and passes through.
  for (const Rule& rule : program.rules()) {
    PredId wide = -1;
    if (program.predicate(rule.head.predicate).arity > kEngineMaxArity) {
      wide = rule.head.predicate;
    }
    for (const Literal& literal : rule.body) {
      if (program.predicate(literal.atom.predicate).arity > kEngineMaxArity) {
        wide = literal.atom.predicate;
      }
    }
    if (wide >= 0) {
      return Status::InvalidArgument(
          "predicate " + program.predicate_name(wide) + " has arity > " +
          std::to_string(kEngineMaxArity) +
          "; the relational engine supports at most " +
          std::to_string(kEngineMaxArity));
    }
  }
  // `owned` holds this evaluation's relations; `relations` is what plans
  // read, pointing into `owned` or, for predicates options.edb keeps, at
  // the kept relation (see EdbRelations).
  std::vector<Relation> owned;
  owned.reserve(num_preds);
  std::vector<const Relation*> relations(num_preds);
  for (PredId p = 0; p < num_preds; ++p) {
    owned.emplace_back(program.predicate(p).arity);
    relations[p] = &owned[p];
  }

  // Resource governance: the entry checkpoint makes an already-tripped
  // context (pre-cancelled, pre-expired deadline) fail here, before any
  // work.
  ExecutionContext* const ctx = options.context;
  if (ctx != nullptr) {
    Status entry = ctx->Checkpoint("engine", 1);
    if (!entry.ok()) return entry;
  }

  // EDB load: stream every fact span into its columns, except the ones a
  // kept relation already holds. The source spans are sorted and
  // duplicate-free, so the uniqueness-exploiting bulk path applies (no
  // membership checks, prefetch-pipelined fingerprint stores).
  EdbRelations* const edb = options.edb;
  std::vector<char> kept(num_preds, 0);
  std::vector<PredId> to_load;
  for (PredId p = 0; p < num_preds; ++p) {
    kept[p] = edb != nullptr && p < edb->num_predicates() &&
              program.IsEdb(p) && facts[p].rows > 0;
    const Relation* relation = kept[p] ? edb->Find(p) : nullptr;
    if (relation != nullptr) {
      relations[p] = relation;
    } else {
      to_load.push_back(p);
    }
  }
  for (const PredId p : to_load) {
    const int64_t rows = facts[p].rows;
    Relation& relation = owned[p];
    relation.Reserve(rows);
    if (rows == 0) continue;
    if (program.predicate(p).arity == 0) {
      TIEBREAK_CHECK_EQ(rows, 1) << "arity-0 span with more than one row";
      const Tuple empty;
      relation.Insert(empty);
      continue;
    }
    // The span rows are already one flat, sorted, duplicate-free row-major
    // arena — exactly the uniqueness-exploiting bulk path's input format,
    // with no flattening copy.
    relation.InsertUniqueBulk(facts[p].data, rows);
  }
  // A Cancel() from another thread may have stopped the context during the
  // loads; otherwise the kept relations built here are whole and can be
  // published.
  if (ctx != nullptr && ctx->stopped()) return ctx->status();
  for (const PredId p : to_load) {
    if (!kept[p]) continue;
    edb->Publish(p, std::move(owned[p]));
    owned[p] = Relation(program.predicate(p).arity);
    relations[p] = edb->Find(p);
  }
  int64_t total_tuples = 0;
  for (PredId p = 0; p < num_preds; ++p) {
    if (kept[p]) {
      TIEBREAK_CHECK_EQ(relations[p]->arity(), program.predicate(p).arity);
      TIEBREAK_CHECK_EQ(relations[p]->size(), facts[p].rows)
          << "kept relation of predicate " << p << " differs from its span";
    }
    total_tuples += relations[p]->size();
  }
  if (ctx != nullptr) {
    // Charge what this call loaded; a borrowed relation costs it nothing.
    int64_t edb_bytes = 0;
    for (const PredId p : to_load) {
      edb_bytes += relations[p]->size() *
                   std::max<int64_t>(program.predicate(p).arity, 1) *
                   static_cast<int64_t>(sizeof(ConstId));
    }
    Status loaded = ctx->ChargeBytes("engine", edb_bytes);
    if (!loaded.ok()) return loaded;
  }

  int32_t max_stratum = 0;
  for (PredId p = 0; p < num_preds; ++p) {
    max_stratum = std::max(max_stratum, (*strata)[p]);
  }
  stats->strata = max_stratum + 1;

  // Deltas are row ranges, not copies: relations only ever append with
  // stable row ids, so "the tuples predicate p gained last round" is
  // exactly rows [delta_begin[p], delta_end[p]) of relations[p]. Fixpoint
  // rounds therefore maintain no second tuple store at all — they snapshot
  // sizes at round barriers.
  std::vector<int64_t> delta_begin(num_preds, 0);
  std::vector<int64_t> delta_end(num_preds, 0);

  PlanCache plans(program, relations);
  RuleEvaluator evaluator(relations);
  // Batched-sink scratch (reused across jobs).
  std::vector<ConstId> sink_buffer;

  Status overflow = Status::Ok();
  // Cooperative abort for the tuple budget: sinks set it on overflow and
  // the evaluator polls it, so no job runs far past max_tuples.
  bool stop = false;

  // Runs one round's jobs and publishes new tuples into `relations`; the
  // published rows land at the end of each relation's columns, which is
  // what makes them the next round's delta ranges. Derived tuples become
  // visible to later jobs of the same round — immediately (per-tuple
  // insert) for feedback plans, at the end of the producing job (batched
  // flush) otherwise. Each job's plan is resolved when the job runs, so its
  // selectivity snapshot sees the tuples earlier jobs of the same round
  // already published (e.g. round 0 of transitive closure compiles the
  // recursive rule after the base rule filled the head relation — the
  // order that lets a chain close in one pass).
  auto run_round = [&](const std::vector<RoundJob>& jobs) -> Status {
    // Per-round checkpoint: catches trips between rounds (and charges the
    // round's dispatch overhead) even when every job is tiny.
    if (ctx != nullptr) {
      Status round_entry =
          ctx->Checkpoint("engine", 1 + static_cast<int64_t>(jobs.size()));
      if (!round_entry.ok()) return round_entry;
    }
    for (const RoundJob& job : jobs) {
      const int64_t delta_size =
          job.delta_relation != nullptr ? job.range_end - job.range_begin : 0;
      const CompiledPlan& plan =
          plans.Get(job.rule, job.delta_literal, delta_size, stats);
      Relation& head = owned[job.head];
      const int32_t head_arity = head.arity();
      const bool batch_sink = head_arity > 0 && !PlanFeedsBack(plan, &head);
      if (batch_sink) {
        sink_buffer.clear();
        int64_t buffered = 0;
        auto flush = [&] {
          if (buffered == 0) return;
          const int64_t added = head.InsertBatch(sink_buffer.data(), buffered);
          stats->tuples_derived += added;
          total_tuples += added;
          if (total_tuples > options.max_tuples) {
            overflow = Status::ResourceExhausted("tuple budget exceeded");
            stop = true;
          }
          if (ctx != nullptr && added > 0) {
            Status charge = ctx->ChargeBytes(
                "engine", added * head_arity *
                              static_cast<int64_t>(sizeof(ConstId)));
            if (!charge.ok()) stop = true;
          }
          sink_buffer.clear();
          buffered = 0;
        };
        auto sink = [&](const ConstId* values) {
          sink_buffer.insert(sink_buffer.end(), values, values + head_arity);
          if (++buffered >= kSinkBlockRows) flush();
        };
        evaluator.Execute(plan, job.delta_relation, job.range_begin,
                          job.range_end, /*inner_static=*/true, sink,
                          &stats->rule_applications, &stop, ctx);
        flush();
      } else {
        int64_t job_bytes = 0;
        auto sink = [&](const ConstId* values) {
          if (head.Insert(values)) {
            ++stats->tuples_derived;
            job_bytes += head_arity * static_cast<int64_t>(sizeof(ConstId));
            if (++total_tuples > options.max_tuples) {
              overflow = Status::ResourceExhausted("tuple budget exceeded");
              stop = true;
            }
          }
        };
        evaluator.Execute(plan, job.delta_relation, job.range_begin,
                          job.range_end, !PlanFeedsBack(plan, &head), sink,
                          &stats->rule_applications, &stop, ctx);
        if (ctx != nullptr && job_bytes > 0) {
          Status charge = ctx->ChargeBytes("engine", job_bytes);
          if (!charge.ok()) stop = true;
        }
      }
      if (!overflow.ok()) return overflow;
      if (ctx != nullptr && ctx->stopped()) return ctx->status();
    }
    return Status::Ok();
  };

  for (int32_t stratum = 0; stratum <= max_stratum; ++stratum) {
    std::vector<int32_t> stratum_rules;
    for (int32_t r = 0; r < program.num_rules(); ++r) {
      if ((*strata)[program.rule(r).head.predicate] == stratum) {
        stratum_rules.push_back(r);
      }
    }
    if (stratum_rules.empty()) continue;

    WallTimer stratum_timer;
    const int64_t stratum_tuples_before = stats->tuples_derived;
    const int32_t stratum_iterations_before = stats->iterations;

    // Which body literals are recursive (positive, IDB, same stratum)?
    auto recursive_literals = [&](const Rule& rule) {
      std::vector<int32_t> result;
      for (int32_t b = 0; b < static_cast<int32_t>(rule.body.size()); ++b) {
        const Literal& lit = rule.body[b];
        if (lit.positive && !program.IsEdb(lit.atom.predicate) &&
            (*strata)[lit.atom.predicate] == stratum) {
          result.push_back(b);
        }
      }
      return result;
    };

    std::vector<RoundJob> jobs;
    auto push_job = [&](int32_t r, int32_t delta_literal,
                        const Relation* delta_relation, int64_t range_begin,
                        int64_t range_end) {
      jobs.push_back(RoundJob{r, delta_literal, program.rule(r).head.predicate,
                              delta_relation, static_cast<int32_t>(range_begin),
                              static_cast<int32_t>(range_end)});
    };

    // The stratum starts with empty deltas; every round barrier advances
    // them to "the rows this round appended".
    auto advance_deltas = [&] {
      for (PredId p = 0; p < num_preds; ++p) {
        delta_begin[p] = delta_end[p];
        delta_end[p] = relations[p]->size();
      }
    };
    for (PredId p = 0; p < num_preds; ++p) {
      delta_end[p] = relations[p]->size();
    }

    // Round 0: full evaluation of every stratum rule.
    ++stats->iterations;
    jobs.clear();
    for (int32_t r : stratum_rules) push_job(r, -1, nullptr, -1, -1);
    Status round = run_round(jobs);
    if (!round.ok()) return round;
    advance_deltas();

    // Fixpoint rounds.
    while (true) {
      bool delta_empty = true;
      for (PredId p = 0; p < num_preds; ++p) {
        delta_empty = delta_empty && delta_begin[p] == delta_end[p];
      }
      if (delta_empty) break;
      ++stats->iterations;
      jobs.clear();
      // One job per recursive literal, that literal restricted to the
      // delta range of its predicate.
      for (int32_t r : stratum_rules) {
        const Rule& rule = program.rule(r);
        for (int32_t b : recursive_literals(rule)) {
          const PredId pred = rule.body[b].atom.predicate;
          if (delta_begin[pred] == delta_end[pred]) continue;
          push_job(r, b, relations[pred], delta_begin[pred], delta_end[pred]);
        }
      }
      round = run_round(jobs);
      if (!round.ok()) return round;
      advance_deltas();
    }

    StratumStats stratum_stats;
    stratum_stats.stratum = stratum;
    stratum_stats.iterations = stats->iterations - stratum_iterations_before;
    stratum_stats.tuples_derived =
        stats->tuples_derived - stratum_tuples_before;
    stratum_stats.seconds = stratum_timer.Seconds();
    stats->per_stratum.push_back(stratum_stats);
  }

  // Materialize the result database through the flat bulk loader: relation
  // rows are already unique, so each predicate is one row-major gather
  // handed to Database::BulkLoadFlat, which owns the sorting (packed-word
  // sorts for arity <= 2, a row-id permutation above) and the linear set
  // build — no Tuple heap allocation anywhere. EDB relations skip even the
  // gather: no rule writes them, so the input arena passes through as a
  // verbatim (already sorted, duplicate-free) copy.
  if (ctx != nullptr) {
    Status final_check = ctx->CheckNow("engine");
    if (!final_check.ok()) return final_check;
  }
  Database result(program);
  std::vector<ConstId> flat;
  for (PredId p = 0; p < num_preds; ++p) {
    const Relation& rel = *relations[p];
    const int32_t arity = rel.arity();
    const int64_t rows = rel.size();
    if (rows == 0) continue;
    if (program.IsEdb(p) && !options.materialize_edb) continue;
    if (arity == 0) {
      result.InsertProposition(p);
      continue;
    }
    flat.clear();
    flat.reserve(static_cast<size_t>(rows) * arity);
    if (program.IsEdb(p)) {
      const ConstId* data = facts[p].data;
      flat.assign(data, data + rows * arity);
    } else {
      for (int64_t row = 0; row < rows; ++row) {
        for (int32_t c = 0; c < arity; ++c) {
          flat.push_back(rel.At(static_cast<int32_t>(row), c));
        }
      }
    }
    result.BulkLoadFlat(p, std::move(flat));
  }
  return result;
}

}  // namespace tiebreak
