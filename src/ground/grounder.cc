#include "ground/grounder.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "engine/evaluation.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace tiebreak {

std::vector<char> UniverseMask(const Program& program,
                               const Database& database) {
  // ConstIds are dense in [0, num_constants), so a seen-bitmap pass over
  // the flat fact arenas replaces the old gather-sort-unique (which sorted
  // one id per fact argument — millions of entries on the large EDBs).
  std::vector<char> seen(program.num_constants(), 0);
  for (PredId p = 0; p < database.num_predicates(); ++p) {
    const size_t total =
        static_cast<size_t>(database.NumFacts(p)) * database.arity(p);
    const ConstId* data = database.FactData(p);
    for (size_t i = 0; i < total; ++i) {
      // Facts normally only mention constants interned in the program; the
      // resize covers hand-built databases that outgrew the table, and the
      // CHECK rejects ids that were never valid constants at all.
      TIEBREAK_CHECK_GE(data[i], 0) << "negative ConstId in database";
      if (data[i] >= static_cast<ConstId>(seen.size())) {
        seen.resize(data[i] + 1, 0);
      }
      seen[data[i]] = 1;
    }
  }
  for (const Rule& rule : program.rules()) {
    auto scan = [&seen](const Atom& atom) {
      for (const Term& term : atom.args) {
        if (term.is_constant()) seen[term.index] = 1;
      }
    };
    scan(rule.head);
    for (const Literal& literal : rule.body) scan(literal.atom);
  }
  return seen;
}

std::vector<ConstId> ComputeUniverse(const Program& program,
                                     const Database& database) {
  const std::vector<char> seen = UniverseMask(program, database);
  std::vector<ConstId> universe;
  for (ConstId c = 0; c < static_cast<ConstId>(seen.size()); ++c) {
    if (seen[c]) universe.push_back(c);
  }
  return universe;
}

namespace {

// Binding rows per block in the batched emission path: bounded by the
// 64-bit live mask, and small enough that a block's substituted atoms and
// intern keys stay L1-resident.
constexpr int32_t kEmitBlock = 64;
// Minimum binding rows per parallel emission shard; a rule's binding
// relation splits into at most 4 × threads shards above it.
constexpr int64_t kMinEmitShardRows = 1024;
// Budget increments a shard context accumulates before flushing them into
// the shared atomic counter (a locked add per emitted row would tax the
// hot loop; the trip decision stays deterministic because the total work
// is fixed by the job list).
constexpr int64_t kWorkFlushBlock = 256;

// Shared state for grounding one program.
class GrounderImpl {
 public:
  GrounderImpl(const Program& program, const Database& database,
               const GroundingOptions& options)
      : program_(program),
        database_(database),
        options_(options),
        exec_(options.context) {
    num_threads_ = ThreadPool::EffectiveThreads(options.num_threads);
  }

  Result<GroundingResult> Run() {
    // Entry checkpoint: an already-tripped context (pre-cancelled,
    // pre-expired deadline) fails here before any work, identically for
    // every thread count.
    if (exec_ != nullptr) {
      Status entry = exec_->Checkpoint("ground", 1);
      if (!entry.ok()) return entry;
    }
    // U is an O(|Δ|) scan, so it is computed here, before emission fans
    // out, and only when something will enumerate over it.
    if (NeedsUniverse()) {
      universe_ = ComputeUniverse(program_, database_);
      universe_ready_ = true;
    }
    root_ctx_.graph = &graph_;
    // Δ's IDB atoms always become nodes: they carry initial truth values.
    // EDB atoms never do (see the file comment).
    for (PredId p = 0; p < database_.num_predicates(); ++p) {
      if (program_.IsEdb(p)) continue;
      const int32_t arity = database_.arity(p);
      const ConstId* data = database_.FactData(p);
      const int64_t facts = database_.NumFacts(p);
      for (int64_t row = 0; row < facts; ++row) {
        graph_.atoms().Intern(p, data + row * arity, arity);
      }
    }
    Status s = GroundReduced();
    if (!s.ok()) return s;
    // Final deadline check before the CSR index builds; a trip during the
    // last emission block that no path returned yet also surfaces here.
    if (exec_ != nullptr) {
      Status final_check = exec_->CheckNow("ground");
      if (!final_check.ok()) return final_check;
    }
    graph_.Finalize(pool_.get());
    GroundingResult result;
    result.graph = std::move(graph_);
    return result;
  }

 private:
  // Per-worker emission state: the target graph (the final graph on the
  // serial path, a private shard during parallel emission) plus every
  // piece of reusable scratch, so no emission path allocates per instance
  // and workers never share mutable state.
  struct EmitContext {
    GroundGraph* graph = nullptr;
    bool parallel = false;     // charge the budget through the shared atomic
    int64_t pending_work = 0;  // budget increments not yet flushed
    Tuple binding;
    Tuple scratch_tuple;
    std::vector<AtomId> scratch_pos;
    std::vector<AtomId> scratch_neg;
    std::vector<size_t> scratch_odo;
    std::vector<int32_t> scratch_free_vars;
    // Batched-emission scratch: one block's substituted argument tuples,
    // their intern keys, per-row intern counts, and (only under
    // record_bindings) the full per-row variable bindings.
    std::vector<ConstId> block_args;
    std::vector<uint64_t> block_keys;
    std::vector<ConstId> block_bindings;
    int32_t block_interned[kEmitBlock] = {};
  };

  // One parallel emission job: a row range of one rule's binding relation.
  struct EmitJob {
    int32_t rule = -1;
    int64_t row_begin = 0;
    int64_t row_end = 0;
  };

  // Per-rule binding plan. A rule with generators takes its binding rows
  // from Δ directly or from the engine, and from the backtracking join
  // when the engine cannot serve it; a rule with none has one zero-column
  // row.
  struct BindPlan {
    std::vector<int32_t> generators;
    std::vector<int32_t> bound_vars;  // ascending variable indexes
    bool direct = false;              // rows are the generator's Δ arena
    bool fallback = false;            // rows from the backtracking join
    // The binding relation: rows of bound_vars.size() ids, one per binding
    // of bound_vars, in Database order (the join's own order for a
    // fallback plan).
    FactSpan rows;
  };

  static Status Exhausted() {
    return Status::ResourceExhausted(
        "grounding exceeded max_instances budget");
  }

  // Budget bookkeeping: one unit per explored binding / emitted instance.
  // Serial contexts count on the plain member; shard contexts batch
  // increments into the shared atomic (kWorkFlushBlock at a time) and poll
  // the stop flag. The parallel trip decision is deterministic: the job
  // list fixes the total work, so the counter crosses the budget iff the
  // serial path's would.
  Status Budget(EmitContext* ctx) {
    if (!ctx->parallel) {
      if (++work_ > options_.max_instances) return Exhausted();
      // Resource checkpoint amortized over kWorkFlushBlock emissions — the
      // serial analogue of FlushWork's per-flush checkpoint.
      if (exec_ != nullptr && (work_ & (kWorkFlushBlock - 1)) == 0) {
        Status s = exec_->Checkpoint("ground", kWorkFlushBlock);
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }
    if (++ctx->pending_work >= kWorkFlushBlock) FlushWork(ctx);
    if (stop_.load(std::memory_order_relaxed)) return TripStatus();
    return Status::Ok();
  }

  // What a tripped stop flag means: the shared context's trip if it has
  // one (cancellation / deadline / its budgets), the instance budget
  // otherwise.
  Status TripStatus() const {
    if (exec_ != nullptr && exec_->stopped()) return exec_->status();
    return Exhausted();
  }

  void FlushWork(EmitContext* ctx) {
    if (ctx->pending_work == 0) return;
    const int64_t flushed = ctx->pending_work;
    const int64_t total =
        shared_work_.fetch_add(flushed, std::memory_order_relaxed) + flushed;
    ctx->pending_work = 0;
    if (total > options_.max_instances) {
      stop_.store(true, std::memory_order_relaxed);
    }
    if (exec_ != nullptr && !exec_->Checkpoint("ground", flushed).ok()) {
      stop_.store(true, std::memory_order_relaxed);
    }
  }

  // True when grounding enumerates over U: some rule has a variable that
  // no positive EDB literal (the only literals matched against Δ) binds.
  bool NeedsUniverse() const {
    std::vector<char> bound;
    for (const Rule& rule : program_.rules()) {
      bound.assign(rule.num_variables, 0);
      for (const Literal& literal : rule.body) {
        if (!literal.positive || !program_.IsEdb(literal.atom.predicate)) {
          continue;
        }
        for (const Term& term : literal.atom.args) {
          if (term.is_variable()) bound[term.index] = 1;
        }
      }
      if (std::find(bound.begin(), bound.end(), 0) != bound.end()) {
        return true;
      }
    }
    return false;
  }

  // Substitutes `binding` into `atom`, writing the ground tuple into the
  // reusable scratch buffer (no allocation once warm).
  void SubstituteInto(const Atom& atom, const Tuple& binding, Tuple* out) {
    out->clear();
    for (const Term& term : atom.args) {
      if (term.is_constant()) {
        out->push_back(term.index);
      } else {
        TIEBREAK_CHECK_GE(binding[term.index], 0) << "unbound variable";
        out->push_back(binding[term.index]);
      }
    }
  }

  // Indexes of the positive EDB literals of `rule` (the generators matched
  // against Δ).
  std::vector<int32_t> GeneratorsOf(const Rule& rule) const {
    std::vector<int32_t> generators;
    for (int32_t b = 0; b < static_cast<int32_t>(rule.body.size()); ++b) {
      const Literal& literal = rule.body[b];
      if (literal.positive && program_.IsEdb(literal.atom.predicate)) {
        generators.push_back(b);
      }
    }
    return generators;
  }

  // Grounding over binding relations: every rule gets its binding rows as
  // one FactSpan — read straight from Δ when ReadsDeltaDirectly, computed
  // by one engine run over the rules with other generators, by the
  // backtracking join for the rules the engine cannot serve, and one
  // zero-column row for a rule with no generator — and the rows stream
  // into instance emission, batched and (num_threads > 1) sharded over the
  // pool. See grounder.h.
  Status GroundReduced() {
    std::vector<BindPlan> plans = PlanBindings();
    // Own the engine's and the join's rows; those plans' spans point into
    // them.
    std::optional<Database> engine_rows;
    Status engine = RunBindingEngine(&plans, &engine_rows);
    if (!engine.ok()) return engine;
    std::vector<ConstId> join_rows;
    Status joined = JoinFallbackRules(&plans, &join_rows);
    if (!joined.ok()) return joined;

    // Pre-size the rule arenas from the known binding counts (free-var
    // enumeration can only add more; the reserve is advisory).
    int64_t total_rows = 0;
    int64_t total_body = 0;
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      const int64_t rows = plans[r].rows.rows;
      int64_t idb_literals = 0;
      for (const Literal& literal : program_.rule(r).body) {
        if (!program_.IsEdb(literal.atom.predicate)) ++idb_literals;
      }
      total_rows += rows;
      total_body += rows * idb_literals;
    }
    if (total_rows > 0) graph_.ReserveRules(total_rows, total_body);
    PlanDenseTables(plans);
    ReserveDenseTables(&graph_, /*parts=*/1);

    if (num_threads_ > 1) {
      // Parallel emission: one job per row shard of each rule's binding
      // relation.
      std::vector<EmitJob> jobs;
      for (int32_t r = 0; r < program_.num_rules(); ++r) {
        const int64_t rows = plans[r].rows.rows;
        if (rows == 0) continue;
        const int64_t shards =
            std::clamp<int64_t>(rows / kMinEmitShardRows, 1,
                                4 * static_cast<int64_t>(num_threads_));
        for (int64_t s = 0; s < shards; ++s) {
          jobs.push_back(
              EmitJob{r, rows * s / shards, rows * (s + 1) / shards});
        }
      }
      if (FillsShards(plans, jobs)) return EmitJobs(plans, jobs);
    }

    // Serial emission, rule by rule in rule order (bindings iterate in
    // their relation's order) — the bit-identical reference path.
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      Status s = EmitBindingRows(&root_ctx_, r, plans[r], 0,
                                 plans[r].rows.rows);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  // True when `plan`'s one generator lists distinct variables in ascending
  // index order. Its arguments are then exactly plan.bound_vars, and Δ's
  // arena of that predicate (sorted, duplicate-free) is the binding
  // relation itself, row for row in the order the engine would return.
  // A zero-arity generator stays on the engine route.
  bool ReadsDeltaDirectly(const Rule& rule, const BindPlan& plan) const {
    if (plan.generators.size() != 1) return false;
    const Atom& atom = rule.body[plan.generators[0]].atom;
    if (atom.args.empty()) return false;
    int32_t last = -1;
    for (const Term& term : atom.args) {
      if (!term.is_variable() || term.index <= last) return false;
      last = term.index;
    }
    return true;
  }

  // Generators, bound variables and route of every rule; direct plans and
  // rules with no generator get their rows here.
  std::vector<BindPlan> PlanBindings() const {
    std::vector<BindPlan> plans(program_.num_rules());
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      const Rule& rule = program_.rule(r);
      BindPlan& plan = plans[r];
      plan.generators = GeneratorsOf(rule);
      if (plan.generators.empty()) {
        // One zero-column row; the odometer expands every variable over U.
        plan.rows = FactSpan{nullptr, 1};
        continue;
      }
      std::vector<char> bound(rule.num_variables, 0);
      for (int32_t b : plan.generators) {
        for (const Term& term : rule.body[b].atom.args) {
          if (term.is_variable()) bound[term.index] = 1;
        }
      }
      for (int32_t v = 0; v < rule.num_variables; ++v) {
        if (bound[v]) plan.bound_vars.push_back(v);
      }
      plan.direct = ReadsDeltaDirectly(rule, plan);
      if (plan.direct) {
        const Atom& generator = rule.body[plan.generators[0]].atom;
        plan.rows = database_.Facts(generator.predicate);
      }
    }
    return plans;
  }

  // True when the engine can hold `plan`'s binding rule: its bound
  // variables and every generator fit kEngineMaxArity columns.
  bool FitsEngine(const Rule& rule, const BindPlan& plan) const {
    if (static_cast<int32_t>(plan.bound_vars.size()) > kEngineMaxArity) {
      return false;
    }
    for (int32_t b : plan.generators) {
      if (static_cast<int32_t>(rule.body[b].atom.args.size()) >
          kEngineMaxArity) {
        return false;
      }
    }
    return true;
  }

  // The engine route: every plan with generators that is not direct
  // becomes a binding rule $bind<r>(bound vars) :- generators over a
  // derived program (same predicate and constant ids as the program — the
  // constant table is shared, not copied), and one engine run evaluates
  // them all. Δ's arenas of the generator predicates are borrowed as
  // FactSpans (or read from options_.edb's kept relations); join plans are
  // compiled and cached per rule, and the engine runs on this thread. On
  // success those plans' rows point into *result. A rule that does not
  // FitsEngine is marked for the fallback join instead. With no engine
  // rule the engine does not run.
  Status RunBindingEngine(std::vector<BindPlan>* plans,
                          std::optional<Database>* result) {
    std::vector<int32_t> engine_rules;
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      BindPlan& plan = (*plans)[r];
      if (plan.generators.empty() || plan.direct) continue;
      if (!FitsEngine(program_.rule(r), plan)) {
        plan.fallback = true;
        continue;
      }
      engine_rules.push_back(r);
    }
    if (engine_rules.empty()) return Status::Ok();

    Program bind_program = program_.CopyVocabulary();
    std::vector<PredId> bind_preds;  // per engine rule
    std::vector<char> read(program_.num_predicates(), 0);
    for (int32_t r : engine_rules) {
      const Rule& rule = program_.rule(r);
      const BindPlan& plan = (*plans)[r];
      std::string name = "$bind" + std::to_string(r);
      while (bind_program.LookupPredicate(name) >= 0) name += "_";
      bind_preds.push_back(bind_program.DeclarePredicate(
          name, static_cast<int32_t>(plan.bound_vars.size())));
      Rule bind_rule;
      bind_rule.head.predicate = bind_preds.back();
      for (int32_t v : plan.bound_vars) {
        bind_rule.head.args.push_back(Term::Variable(v));
      }
      for (int32_t b : plan.generators) {
        bind_rule.body.push_back(rule.body[b]);
        read[rule.body[b].atom.predicate] = 1;
      }
      bind_rule.num_variables = rule.num_variables;
      bind_rule.variable_names = rule.variable_names;
      bind_program.AddRule(std::move(bind_rule));
    }
    Status valid = bind_program.Validate();
    TIEBREAK_CHECK(valid.ok()) << valid.ToString();
    // Only the relations the binding rules read are handed to the engine.
    std::vector<FactSpan> edb(bind_program.num_predicates());
    int64_t edb_facts = 0;
    for (PredId p = 0; p < program_.num_predicates(); ++p) {
      if (!read[p]) continue;
      edb[p] = database_.Facts(p);
      edb_facts += edb[p].rows;
    }

    EngineOptions engine_options;
    // The engine's tuple budget counts the loaded EDB too; charge only
    // the derived binding rows against the grounding budget.
    engine_options.max_tuples = options_.max_instances + edb_facts;
    // Only the $bind relations are read back; don't copy the EDB into
    // the result.
    engine_options.materialize_edb = false;
    // The grounding's context governs the engine evaluation too: its
    // checkpoints run inside the join kernels, and a trip there aborts
    // the whole grounding below.
    engine_options.context = exec_;
    engine_options.edb = options_.edb;
    Result<Database> evaluated = EvaluateStratified(
        bind_program, Span<const FactSpan>(edb.data(), edb.size()),
        engine_options);
    if (!evaluated.ok() && exec_ != nullptr && exec_->stopped()) {
      // A context trip (cancellation, deadline, its step/byte budgets) is
      // a real abort, never a reason to fall back to the backtracking
      // join — that would restart the work the user just cancelled.
      return exec_->status();
    }
    if (!evaluated.ok()) {
      // More binding rows than the instance budget allows: emission could
      // never fit either.
      if (evaluated.status().code() == StatusCode::kResourceExhausted) {
        return Exhausted();
      }
      // Any other engine rejection: fall back to the backtracking join for
      // every engine-route rule rather than failing a grounding the join
      // can do.
      for (int32_t r : engine_rules) (*plans)[r].fallback = true;
      return Status::Ok();
    }
    result->emplace(std::move(evaluated).value());
    for (size_t i = 0; i < engine_rules.size(); ++i) {
      (*plans)[engine_rules[i]].rows = (*result)->Facts(bind_preds[i]);
    }
    return Status::Ok();
  }

  // The fallback route: each rule marked fallback gets its binding rows
  // from the backtracking join of its generators against Δ, appended to
  // *rows in the join's own order; its span then points into *rows.
  Status JoinFallbackRules(std::vector<BindPlan>* plans,
                           std::vector<ConstId>* rows) {
    std::vector<std::pair<BindPlan*, size_t>> joined;
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      BindPlan& plan = (*plans)[r];
      if (!plan.fallback) continue;
      joined.emplace_back(&plan, rows->size());
      root_ctx_.binding.assign(program_.rule(r).num_variables, -1);
      Status s = JoinGenerators(program_.rule(r), &plan, 0,
                                &root_ctx_.binding, rows);
      if (!s.ok()) return s;
    }
    // Spans are set once every join is done: *rows may move as it grows.
    for (const auto& [plan, offset] : joined) {
      plan->rows.data = rows->data() + offset;
    }
    return Status::Ok();
  }

  // Tuple-at-a-time backtracking join of `plan`'s generators g, g+1, ...
  // against Δ under the partial `binding`: each complete match appends its
  // bound variables to *rows as one row of plan->rows. One budget unit per
  // explored fact.
  Status JoinGenerators(const Rule& rule, BindPlan* plan, size_t g,
                        Tuple* binding, std::vector<ConstId>* rows) {
    if (g == plan->generators.size()) {
      for (int32_t v : plan->bound_vars) rows->push_back((*binding)[v]);
      ++plan->rows.rows;
      return Status::Ok();
    }
    const Atom& atom = rule.body[plan->generators[g]].atom;
    const PredId pred = atom.predicate;
    const int32_t arity = database_.arity(pred);
    const ConstId* data = database_.FactData(pred);
    const int64_t facts = database_.NumFacts(pred);
    for (int64_t row = 0; row < facts; ++row) {
      const ConstId* tuple = data + row * arity;
      Status s = Budget(&root_ctx_);
      if (!s.ok()) return s;
      // Try to unify `atom` with `tuple` under the current partial binding.
      std::vector<int32_t> bound_here;
      bool match = true;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& term = atom.args[i];
        if (term.is_constant()) {
          if (term.index != tuple[i]) {
            match = false;
            break;
          }
        } else if ((*binding)[term.index] >= 0) {
          if ((*binding)[term.index] != tuple[i]) {
            match = false;
            break;
          }
        } else {
          (*binding)[term.index] = tuple[i];
          bound_here.push_back(term.index);
        }
      }
      if (match) {
        s = JoinGenerators(rule, plan, g + 1, binding, rows);
        if (!s.ok()) return s;
      }
      for (int32_t var : bound_here) (*binding)[var] = -1;
    }
    return Status::Ok();
  }

  // Records, for each unary IDB predicate, the binding rows of the rules
  // that name it, for ReserveDenseTables.
  void PlanDenseTables(const std::vector<BindPlan>& plans) {
    std::vector<int64_t> rows(program_.num_predicates(), 0);
    std::vector<int32_t> counted_for(program_.num_predicates(), -1);
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      const Rule& rule = program_.rule(r);
      auto count = [&](const Atom& atom) {
        if (counted_for[atom.predicate] == r) return;  // once per rule
        counted_for[atom.predicate] = r;
        rows[atom.predicate] += plans[r].rows.rows;
      };
      count(rule.head);
      for (const Literal& literal : rule.body) count(literal.atom);
    }
    for (PredId p = 0; p < program_.num_predicates(); ++p) {
      if (program_.predicate(p).arity == 1 && !program_.IsEdb(p) &&
          rows[p] > 0) {
        dense_rows_.push_back({p, rows[p]});
      }
    }
  }

  // Reserves a dense atom table on `graph`, one of `parts` graphs that
  // share the binding rows evenly (the serial graph is one of one, a shard
  // one of the workers), for each unary IDB predicate whose share of its
  // rows is at least num_constants / 8, decided from the pre-counted rows
  // and the program's constant count only. A row that becomes a rule node
  // appends at least 32 bytes of rule arenas and the table costs 4 bytes
  // per constant, so a table costs no more than the rule arenas of the
  // rows emitted into its graph; a demand request's cone over a large
  // constant table, or a shard's thin share of a sparse one, stays on the
  // hash table.
  void ReserveDenseTables(GroundGraph* graph, int32_t parts) const {
    const int32_t constants = program_.num_constants();
    for (const auto& [pred, rows] : dense_rows_) {
      if ((rows + parts - 1) / parts >= constants / 8) {
        graph->atoms().ReserveDense(pred, constants);
      }
    }
  }

  // True when `jobs` are worth a pool: their binding rows fill at least
  // two emission shards. The one zero-column row of a rule with no
  // generator but with variables counts as a whole shard, since the
  // odometer expands it over U^k. Below that the workers' spawn and join
  // cost more than the emission (a demand request grounds a cone of a few
  // atoms), and the serial path, the bit-identical reference, runs
  // instead.
  bool FillsShards(const std::vector<BindPlan>& plans,
                   const std::vector<EmitJob>& jobs) const {
    int64_t rows = 0;
    for (const EmitJob& job : jobs) {
      const bool expands = plans[job.rule].generators.empty() &&
                           program_.rule(job.rule).num_variables > 0;
      rows += expands ? kMinEmitShardRows : job.row_end - job.row_begin;
    }
    return rows / kMinEmitShardRows >= 2;
  }

  // Runs `jobs` over a new pool: each worker emits into a private
  // GroundGraph shard (no shared mutable state during the fan-out — the
  // program, Δ and the binding relations are read-only), then the shards
  // merge into the final graph with an atom-id remap. Returns
  // RESOURCE_EXHAUSTED when the combined work crossed the instance budget.
  Status EmitJobs(const std::vector<BindPlan>& plans,
                  const std::vector<EmitJob>& jobs) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
    const int32_t workers = pool_->num_threads();
    std::vector<GroundGraph> shards(workers);
    std::vector<EmitContext> contexts(workers);
    std::vector<Status> statuses(workers, Status::Ok());
    // Size each shard's arenas once, for an even share of the binding rows
    // plus a quarter for uneven scheduling, and the merge target's atom
    // arenas once for all shards. Grown by doubling, they would be copied
    // and faulted in anew several times per grounding.
    int64_t rows = 0;
    int64_t body = 0;
    int64_t atoms = 0;
    int64_t args = 0;
    for (const EmitJob& job : jobs) {
      const EmitProgram prog = BuildEmitProgram(program_.rule(job.rule));
      const int64_t n = job.row_end - job.row_begin;
      rows += n;
      body += n * (prog.num_intern - 1);
      atoms += n * prog.num_intern;
      args += n * prog.stride;
    }
    const auto share = [&](int64_t total) {
      return (total + workers - 1) / workers * 5 / 4;
    };
    for (int32_t w = 0; w < workers; ++w) {
      shards[w].ReserveRules(share(rows), share(body));
      shards[w].atoms().Reserve(share(atoms), share(args));
      ReserveDenseTables(&shards[w], workers);
      contexts[w].graph = &shards[w];
      contexts[w].parallel = true;
    }
    shared_work_.store(work_, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    pool_->ParallelFor(
        static_cast<int32_t>(jobs.size()),
        [&](int32_t task, int32_t worker) {
          EmitContext* ctx = &contexts[worker];
          if (!statuses[worker].ok()) return;  // this lane already failed
          const EmitJob& job = jobs[task];
          Status s = EmitBindingRows(ctx, job.rule, plans[job.rule],
                                     job.row_begin, job.row_end);
          FlushWork(ctx);
          if (!s.ok()) statuses[worker] = s;
        },
        exec_);
    work_ = shared_work_.load(std::memory_order_relaxed);
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    // A context trip that raced past every worker's return (e.g. set by
    // the last FlushWork) still aborts the grounding here, before the
    // merge.
    if (exec_ != nullptr && exec_->stopped()) return exec_->status();
    if (work_ > options_.max_instances) return Exhausted();
    int64_t merged_atoms = graph_.atoms().size();
    int64_t merged_args = graph_.atoms().num_args();
    for (const GroundGraph& shard : shards) {
      merged_atoms += shard.atoms().size();
      merged_args += shard.atoms().num_args();
    }
    graph_.atoms().Reserve(merged_atoms, merged_args);
    for (const GroundGraph& shard : shards) graph_.MergeFrom(shard);
    return Status::Ok();
  }

  // Per-rule batched-emission program, in body order with the head last:
  // kill checks (negated EDB) interleave with intern ops (IDB literals) in
  // literal order.
  struct EmitOp {
    const Atom* atom = nullptr;
    bool positive = true;  // body sign (head entry unused)
    bool head = false;     // the head intern op (always last)
    bool kill = false;     // negated-EDB membership check, no intern
    int32_t offset = 0;    // argument offset within one row's stride
  };
  struct EmitProgram {
    std::vector<EmitOp> ops;
    std::vector<PredId> op_preds;  // intern-op ordinal -> predicate
    int32_t stride = 0;            // substituted args per instance
    int32_t num_intern = 0;        // intern ops per instance (incl. head)
  };

  EmitProgram BuildEmitProgram(const Rule& rule) const {
    EmitProgram prog;
    for (const Literal& literal : rule.body) {
      const PredId pred = literal.atom.predicate;
      if (program_.IsEdb(pred)) {
        if (literal.positive) continue;  // matched against Δ already
        prog.ops.push_back(
            EmitOp{&literal.atom, false, false, /*kill=*/true, 0});
        continue;
      }
      prog.ops.push_back(
          EmitOp{&literal.atom, literal.positive, false, false, prog.stride});
      prog.stride += static_cast<int32_t>(literal.atom.args.size());
      ++prog.num_intern;
    }
    prog.ops.push_back(EmitOp{&rule.head, true, true, false, prog.stride});
    prog.stride += static_cast<int32_t>(rule.head.args.size());
    ++prog.num_intern;
    for (const EmitOp& op : prog.ops) {
      if (!op.kill) prog.op_preds.push_back(op.atom->predicate);
    }
    return prog;
  }

  // Sizes a context's block scratch for `prog` (idempotent).
  void ReserveBlockScratch(EmitContext* ctx, const EmitProgram& prog,
                           const Rule& rule) const {
    ctx->block_args.resize(static_cast<size_t>(prog.stride) * kEmitBlock);
    ctx->block_keys.resize(static_cast<size_t>(prog.num_intern) * kEmitBlock);
    if (options_.record_bindings) {
      ctx->block_bindings.resize(
          static_cast<size_t>(rule.num_variables) * kEmitBlock);
    }
  }

  // Stages the instance under ctx->binding into block slot `i`: walks the
  // emission program in literal order — a true negated-EDB atom kills the
  // instance at its literal (atoms substituted before the kill still
  // intern, preserving the historical atom set) — substituting each
  // surviving atom into block scratch and precomputing its dedupe key.
  // Returns whether the instance survived.
  bool StageInstance(EmitContext* ctx, const EmitProgram& prog,
                     const Rule& rule, int32_t i) {
    ConstId* args = ctx->block_args.data() +
                    static_cast<size_t>(i) * prog.stride;
    uint64_t* keys = ctx->block_keys.data() +
                     static_cast<size_t>(i) * prog.num_intern;
    const GroundAtomStore& atoms = ctx->graph->atoms();
    int32_t interned = 0;
    bool killed = false;
    for (const EmitOp& op : prog.ops) {
      if (op.kill) {
        // A true negated-EDB atom kills the instance outright (the first
        // close would delete this rule node); a false one is a satisfied
        // literal and leaves no edge.
        SubstituteInto(*op.atom, ctx->binding, &ctx->scratch_tuple);
        if (database_.ContainsRow(op.atom->predicate,
                                  ctx->scratch_tuple.data())) {
          killed = true;
          break;
        }
        continue;
      }
      ConstId* out = args + op.offset;
      int32_t k = 0;
      for (const Term& term : op.atom->args) {
        out[k++] =
            term.is_constant() ? term.index : ctx->binding[term.index];
      }
      keys[interned++] = atoms.InternKey(out, k);
    }
    ctx->block_interned[i] = interned;
    if (options_.record_bindings && !killed) {
      std::copy(ctx->binding.begin(), ctx->binding.end(),
                ctx->block_bindings.begin() +
                    static_cast<size_t>(i) * rule.num_variables);
    }
    return !killed;
  }

  // Prefetches every dedupe slot line block rows [0, n) will touch, in the
  // order the interns will consume them (the Relation::InsertBatch trick:
  // the lines are in flight while pass 2 walks up to them).
  void PrefetchBlock(const EmitContext* ctx, const EmitProgram& prog,
                     int32_t n) const {
    const GroundAtomStore& atoms = ctx->graph->atoms();
    for (int32_t i = 0; i < n; ++i) {
      const uint64_t* keys = ctx->block_keys.data() +
                             static_cast<size_t>(i) * prog.num_intern;
      for (int32_t j = 0; j < ctx->block_interned[i]; ++j) {
        atoms.PrefetchIntern(prog.op_preds[j], keys[j]);
      }
    }
  }

  // Interns and appends the staged block rows [0, n): ascending rows, body
  // before head, the order of one-row-at-a-time emission, so the serial
  // graph stays bit-identical. Killed rows (bit clear in `live`) intern
  // their pre-kill prefix but append no rule node.
  void AppendBlock(EmitContext* ctx, int32_t rule_index, const Rule& rule,
                   const EmitProgram& prog, int32_t n, uint64_t live) {
    GroundAtomStore& atoms = ctx->graph->atoms();
    for (int32_t i = 0; i < n; ++i) {
      const ConstId* args = ctx->block_args.data() +
                            static_cast<size_t>(i) * prog.stride;
      const uint64_t* keys = ctx->block_keys.data() +
                             static_cast<size_t>(i) * prog.num_intern;
      ctx->scratch_pos.clear();
      ctx->scratch_neg.clear();
      AtomId head = -1;
      int32_t o = 0;
      for (const EmitOp& op : prog.ops) {
        if (op.kill) continue;
        if (o >= ctx->block_interned[i]) break;
        const AtomId id = atoms.InternHashed(
            op.atom->predicate, args + op.offset,
            static_cast<int32_t>(op.atom->args.size()), keys[o]);
        ++o;
        if (op.head) {
          head = id;
        } else {
          (op.positive ? ctx->scratch_pos : ctx->scratch_neg).push_back(id);
        }
      }
      if (((live >> i) & 1) == 0) continue;
      TIEBREAK_CHECK_GE(head, 0);
      const ConstId* binding =
          options_.record_bindings
              ? ctx->block_bindings.data() +
                    static_cast<size_t>(i) * rule.num_variables
              : nullptr;
      ctx->graph->AppendRule(
          rule_index, head, ctx->scratch_pos.data(),
          static_cast<int32_t>(ctx->scratch_pos.size()),
          ctx->scratch_neg.data(),
          static_cast<int32_t>(ctx->scratch_neg.size()), binding,
          options_.record_bindings ? rule.num_variables : 0);
    }
  }

  // Streams rows [row_begin, row_end) of `plan.rows` into instance
  // emission for rule `r` through the block-batched pipeline, whichever
  // route produced them: fully-bound rules stage one instance per binding
  // row; rules with residual free variables (every variable of a rule with
  // no generator) expand each row through the universe odometer, staging
  // one instance per odometer step — either way every instance's atoms are
  // hashed a block ahead of the interns that consume them.
  Status EmitBindingRows(EmitContext* ctx, int32_t r, const BindPlan& plan,
                         int64_t row_begin, int64_t row_end) {
    const Rule& rule = program_.rule(r);
    const int32_t arity = static_cast<int32_t>(plan.bound_vars.size());
    const ConstId* rows = plan.rows.data + row_begin * arity;
    const int64_t num_rows = row_end - row_begin;
    ctx->binding.assign(rule.num_variables, -1);
    ctx->scratch_free_vars.clear();
    {
      std::vector<char> bound(rule.num_variables, 0);
      for (int32_t v : plan.bound_vars) bound[v] = 1;
      for (int32_t v = 0; v < rule.num_variables; ++v) {
        if (!bound[v]) ctx->scratch_free_vars.push_back(v);
      }
    }
    const EmitProgram prog = BuildEmitProgram(rule);
    ReserveBlockScratch(ctx, prog, rule);

    if (ctx->scratch_free_vars.empty()) {
      // Fully bound: one instance per binding row, kEmitBlock rows per
      // block.
      for (int64_t block_begin = 0; block_begin < num_rows;
           block_begin += kEmitBlock) {
        const int32_t n = static_cast<int32_t>(
            std::min<int64_t>(kEmitBlock, num_rows - block_begin));
        uint64_t live = 0;
        for (int32_t i = 0; i < n; ++i) {
          Status s = Budget(ctx);
          if (!s.ok()) return s;
          const ConstId* values = rows + (block_begin + i) * arity;
          for (int32_t j = 0; j < arity; ++j) {
            ctx->binding[plan.bound_vars[j]] = values[j];
          }
          if (StageInstance(ctx, prog, rule, i)) live |= uint64_t{1} << i;
        }
        PrefetchBlock(ctx, prog, n);
        AppendBlock(ctx, r, rule, prog, n, live);
      }
      return Status::Ok();
    }

    // Residual free variables: every binding row expands over the
    // universe odometer. Odometer steps stream through the same block
    // pipeline — this is the path the Theorem 6 machine workloads live on
    // (few binding rows, |U|^k instances each).
    TIEBREAK_CHECK(universe_ready_);
    const std::vector<int32_t>& free_vars = ctx->scratch_free_vars;
    for (int64_t row = 0; row < num_rows; ++row) {
      Status s = Budget(ctx);
      if (!s.ok()) return s;
      const ConstId* values = rows + row * arity;
      for (int32_t j = 0; j < arity; ++j) {
        ctx->binding[plan.bound_vars[j]] = values[j];
      }
      if (universe_.empty()) continue;  // free variables cannot bind
      ctx->scratch_odo.assign(free_vars.size(), 0);
      for (int32_t var : free_vars) ctx->binding[var] = universe_.front();
      bool done = false;
      while (!done) {
        int32_t n = 0;
        uint64_t live = 0;
        while (n < kEmitBlock && !done) {
          s = Budget(ctx);
          if (!s.ok()) {
            for (int32_t var : free_vars) ctx->binding[var] = -1;
            return s;
          }
          if (StageInstance(ctx, prog, rule, n)) live |= uint64_t{1} << n;
          ++n;
          int32_t pos = static_cast<int32_t>(free_vars.size()) - 1;
          while (pos >= 0) {
            if (++ctx->scratch_odo[pos] < universe_.size()) {
              ctx->binding[free_vars[pos]] = universe_[ctx->scratch_odo[pos]];
              break;
            }
            ctx->scratch_odo[pos] = 0;
            ctx->binding[free_vars[pos]] = universe_.front();
            --pos;
          }
          if (pos < 0) done = true;
        }
        PrefetchBlock(ctx, prog, n);
        AppendBlock(ctx, r, rule, prog, n, live);
      }
      for (int32_t var : free_vars) ctx->binding[var] = -1;
    }
    return Status::Ok();
  }

  const Program& program_;
  const Database& database_;
  const GroundingOptions& options_;
  // Shared execution context (null = ungoverned); see GroundingOptions.
  ExecutionContext* const exec_;
  int32_t num_threads_ = 1;
  // Created by EmitJobs, only for jobs that fill two shards (FillsShards).
  std::unique_ptr<ThreadPool> pool_;
  // Unary IDB predicates and their binding rows (PlanDenseTables).
  std::vector<std::pair<PredId, int64_t>> dense_rows_;
  // U, computed in Run() only when NeedsUniverse(); read-only afterwards.
  std::vector<ConstId> universe_;
  bool universe_ready_ = false;
  GroundGraph graph_;
  // Instance budget: the serial counter, plus the shared atomic + stop
  // flag shard contexts flush into during parallel emission.
  int64_t work_ = 0;
  std::atomic<int64_t> shared_work_{0};
  std::atomic<bool> stop_{false};
  // The serial path's emission context, bound to the final graph.
  EmitContext root_ctx_;
};

}  // namespace

Result<GroundingResult> Ground(const Program& program,
                               const Database& database,
                               const GroundingOptions& options) {
  TIEBREAK_CHECK_EQ(program.num_predicates(), database.num_predicates())
      << "database was built for a different program";
  GrounderImpl impl(program, database, options);
  return impl.Run();
}

}  // namespace tiebreak
