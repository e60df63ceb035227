#include "core/query_plan.h"

#include <utility>

#include "core/stratification.h"
#include "core/well_founded.h"
#include "engine/evaluation.h"
#include "ground/grounder.h"
#include "util/execution_context.h"
#include "util/span.h"

namespace tiebreak {
namespace {

// True when `status` is the governing context's own trip — truncation
// semantics (sound prefix, OK result) — rather than a structural failure of
// the demand pipeline, which demotes the plan to full grounding.
bool IsContextTrip(const Status& status, const ExecutionContext* context) {
  return context != nullptr && context->stopped() &&
         status.code() == context->status().code();
}

// The OK-with-truncation result a trip before the final scan produces: no
// bindings (a sound, empty prefix), the trip recorded.
QueryResult TruncatedResult(const AtomPattern& atom, Status trip) {
  QueryResult result;
  result.variables = atom.variable_names;
  result.truncation = std::move(trip);
  return result;
}

// Applies the interpreter-truncation contract to a finished scan: when the
// interpreter tripped, its kUndef entries mean "undecided", not "the
// semantics leaves this undefined" — so undefined bindings are dropped and
// the trip is recorded, leaving only sound true bindings.
void MergeInterpreterTruncation(const InterpreterResult& wf,
                                QueryResult* result) {
  if (wf.truncation.ok()) return;
  result->undefined_bindings.clear();
  if (result->truncation.ok()) result->truncation = wf.truncation;
}

}  // namespace

QueryPlanner::QueryPlanner(const Program& program, const Database& database)
    : program_(program),
      database_(&database),
      edb_(database.num_predicates()) {
  TIEBREAK_CHECK_EQ(database.num_predicates(), program.num_predicates())
      << "database not shaped by program";
  in_universe_ = UniverseMask(program, database);
}

Result<QueryResult> QueryPlanner::Execute(std::string_view pattern,
                                          const QueryOptions& options) {
  Result<AtomPattern> parsed = ParseAtomPattern(pattern, &program_);
  if (!parsed.ok()) return parsed.status();
  const PredId pred = parsed->atom.predicate;

  if (options.mode == QueryMode::kFullGround) {
    ++stats_.full_queries;
    return ExecuteFull(*parsed, pattern, options);
  }

  // Reduced grounding interns no EDB atoms, so an EDB pattern is empty in
  // both modes (see Execute's doc comment), and so is a pattern with a
  // constant outside U, which no ground atom mentions; skip the pipeline
  // entirely.
  if (program_.IsEdb(pred) || !ConstantsInUniverse(parsed->atom)) {
    ++stats_.demand_queries;
    QueryResult empty;
    empty.variables = parsed->variable_names;
    return empty;
  }

  std::string adornment(parsed->atom.args.size(), 'f');
  for (size_t i = 0; i < parsed->atom.args.size(); ++i) {
    if (parsed->atom.args[i].is_constant()) adornment[i] = 'b';
  }

  CachedPlan* plan = GetPlan(pred, adornment);
  if (plan->fallback_reason.empty()) {
    Result<QueryResult> answer = ExecuteDemand(plan, *parsed, pattern, options);
    if (answer.ok()) {
      ++stats_.demand_queries;
      return answer;
    }
    // A structural failure surfaced at execution time (engine rejection, a
    // grounder error that is not this request's context trip) demotes the
    // plan permanently; the request is still served below.
    plan->fallback_reason = answer.status().ToString();
  }
  ++stats_.fallbacks;
  ++stats_.full_queries;
  stats_.last_fallback_reason = plan->fallback_reason;
  return ExecuteFull(*parsed, pattern, options);
}

bool QueryPlanner::ConstantsInUniverse(const Atom& atom) const {
  for (const Term& term : atom.args) {
    if (!term.is_constant()) continue;
    if (term.index >= static_cast<ConstId>(in_universe_.size()) ||
        !in_universe_[term.index]) {
      return false;
    }
  }
  return true;
}

QueryPlanner::CachedPlan* QueryPlanner::GetPlan(PredId pred,
                                                const std::string& adornment) {
  const auto key = std::make_pair(pred, adornment);
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.plan_cache_hits;
    return it->second.get();
  }
  ++stats_.plans_built;
  auto plan = std::make_unique<CachedPlan>();
  Result<DemandTransform> transform =
      MagicSetTransform(program_, pred, adornment);
  if (!transform.ok()) {
    plan->fallback_reason = transform.status().ToString();
  } else {
    plan->transform = std::move(*transform);
    // Defensive gates: the transform promises all three, but a violation
    // must degrade to full grounding with a reason, never to a CHECK.
    const Program& demand = plan->transform.demand;
    Status safety = CheckSafety(demand);
    if (!safety.ok()) {
      plan->fallback_reason = "demand program unsafe: " + safety.message();
    } else if (!IsStratified(demand)) {
      plan->fallback_reason = "demand program not stratified";
    } else {
      // Only the predicates the demand rules mention reach the engine; the
      // copied vocabulary may declare wider ones that no rule reads.
      const auto check = [&](const Atom& atom) {
        if (plan->fallback_reason.empty() &&
            demand.predicate(atom.predicate).arity > kEngineMaxArity) {
          plan->fallback_reason = "demand predicate '" +
                                  demand.predicate_name(atom.predicate) +
                                  "' exceeds the engine arity cap";
        }
      };
      for (const Rule& rule : demand.rules()) {
        check(rule.head);
        for (const Literal& literal : rule.body) check(literal.atom);
      }
    }
  }
  CachedPlan* raw = plan.get();
  plans_.emplace(key, std::move(plan));
  return raw;
}

Result<QueryResult> QueryPlanner::ExecuteDemand(CachedPlan* plan,
                                                const AtomPattern& atom,
                                                std::string_view pattern,
                                                const QueryOptions& options) {
  // The plan's programs keep the constant table of their build: a pattern
  // constant interned into program_ since then only ever appears in facts
  // (the seed and the magic relations), never in their rules, and the final
  // scan parses the pattern against program_, whose ids they share.
  const DemandTransform& t = plan->transform;

  // The seed fact: the pattern's constants at the adornment's bound
  // positions, in position order.
  std::vector<ConstId> seed;
  seed.reserve(t.seed_positions.size());
  for (int32_t pos : t.seed_positions) {
    seed.push_back(atom.atom.args[pos].index);
  }

  // Phase 1: the demand program over Δ's kept relations — only the EDB
  // relations its rule bodies read — plus the one-row seed span.
  std::vector<FactSpan> spans(t.demand.num_predicates());
  for (PredId p = 0; p < program_.num_predicates(); ++p) {
    if (t.edb_used[p]) spans[p] = database_->Facts(p);
  }
  spans[t.seed] = FactSpan{seed.data(), 1};
  EngineOptions engine_options;
  engine_options.materialize_edb = false;
  engine_options.context = options.context;
  engine_options.edb = &edb_;
  Result<Database> magic = EvaluateStratified(
      t.demand, Span<const FactSpan>(spans.data(), spans.size()),
      engine_options);
  if (!magic.ok()) {
    if (IsContextTrip(magic.status(), options.context)) {
      return TruncatedResult(atom, magic.status());
    }
    return magic.status();
  }

  // Prepare the phase-2 database once per plan: Δ relations copied through
  // at their original predicate ids (magic relations follow, empty).
  if (plan->prepared == nullptr) {
    plan->prepared = std::make_unique<Database>(t.guarded);
    for (PredId p = 0; p < program_.num_predicates(); ++p) {
      const int64_t rows = database_->NumFacts(p);
      if (rows == 0) continue;
      if (database_->arity(p) == 0) {
        plan->prepared->InsertProposition(p);
        continue;
      }
      const ConstId* data = database_->FactData(p);
      plan->prepared->BulkLoadFlat(
          p, std::vector<ConstId>(
                 data, data + rows * static_cast<int64_t>(database_->arity(p))));
    }
  }

  // This request's demanded cone: clear and reload the magic relations.
  for (PredId p = 0; p < program_.num_predicates(); ++p) {
    const PredId m = t.magic[p];
    if (m < 0) continue;
    plan->prepared->ClearRelation(m);
    const int64_t rows = magic->NumFacts(m);
    if (rows == 0) continue;
    if (magic->arity(m) == 0) {
      plan->prepared->InsertProposition(m);
      continue;
    }
    const ConstId* data = magic->FactData(m);
    plan->prepared->BulkLoadFlat(
        m, std::vector<ConstId>(
               data, data + rows * static_cast<int64_t>(magic->arity(m))));
  }

  // Phase 2: reduced grounding of the guarded program — the magic guards
  // resolve at binding-enumeration time, so only the cone's instances are
  // created, and the binding rules read Δ's kept relations — then the
  // well-founded interpreter and the indexed scan.
  GroundingOptions ground_options;
  ground_options.num_threads = options.num_threads;
  ground_options.context = options.context;
  ground_options.edb = &edb_;
  Result<GroundingResult> ground =
      Ground(t.guarded, *plan->prepared, ground_options);
  if (!ground.ok()) {
    if (IsContextTrip(ground.status(), options.context)) {
      return TruncatedResult(atom, ground.status());
    }
    return ground.status();
  }

  const InterpreterResult wf = WellFounded(t.guarded, *plan->prepared,
                                           ground->graph, options.context);

  Result<QueryResult> answer = EvaluateQuery(
      &program_, ground->graph, wf.values, pattern, options.context);
  if (!answer.ok()) return answer.status();
  MergeInterpreterTruncation(wf, &*answer);
  return answer;
}

Result<QueryResult> QueryPlanner::ExecuteFull(const AtomPattern& atom,
                                              std::string_view pattern,
                                              const QueryOptions& options) {
  // Loads Δ per call: kept relations stay out of the oracle path.
  GroundingOptions ground_options;
  ground_options.num_threads = options.num_threads;
  ground_options.context = options.context;
  Result<GroundingResult> ground =
      Ground(program_, *database_, ground_options);
  if (!ground.ok()) {
    if (IsContextTrip(ground.status(), options.context)) {
      return TruncatedResult(atom, ground.status());
    }
    return ground.status();
  }

  const InterpreterResult wf =
      WellFounded(program_, *database_, ground->graph, options.context);

  Result<QueryResult> answer = EvaluateQuery(&program_, ground->graph,
                                             wf.values, pattern,
                                             options.context);
  if (!answer.ok()) return answer.status();
  MergeInterpreterTruncation(wf, &*answer);
  return answer;
}

}  // namespace tiebreak
