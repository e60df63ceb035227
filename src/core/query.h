// Pattern queries against computed models: "win(X)" returns the bindings of
// X for which win is true (and separately those left undefined by a partial
// model). This is the downstream-user API for consuming interpreter output
// without touching AtomIds.
#ifndef TIEBREAK_CORE_QUERY_H_
#define TIEBREAK_CORE_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h.
class ExecutionContext;

/// Result of one pattern query.
struct QueryResult {
  /// Variable names of the pattern, in first-occurrence order; the tuples
  /// below bind them positionally.
  std::vector<std::string> variables;
  /// Bindings whose instantiated atom is true in the model.
  std::vector<Tuple> true_bindings;
  /// Bindings left undefined (nonempty only for partial models — including
  /// models truncated by a resource trip, whose undecided atoms are
  /// kUndef).
  std::vector<Tuple> undefined_bindings;
  /// OK for a complete scan. The trip Status when a governing context
  /// tripped mid-query: the bindings above are a sound prefix (every entry
  /// correct, later atoms unscanned).
  Status truncation = Status::Ok();
};

/// Evaluates `pattern` (e.g. "win(X)", "t(a, Y)", "p") against `values`
/// over the atoms materialized in `graph`. Repeated variables constrain
/// equality ("e(X, X)"); constants filter. Atoms of the pattern's predicate
/// that are not in the store are false in every model over this graph and
/// are not reported. EDB patterns under reduced grounding therefore query Δ
/// content only through rules — query the database directly for raw EDB
/// facts. Mutates `program` only by interning constants in the pattern.
///
/// Cost: a fully-bound pattern is answered by one dedupe-table probe of the
/// atom store (the packed-exact key for arity <= 2); patterns with
/// variables scan only the pattern predicate's atoms through the
/// per-predicate index a finalized graph carries — never the whole store.
/// With a non-null `context`, the scan checkpoints every 1024 atoms; a trip
/// returns OK with QueryResult::truncation set and the bindings found so
/// far (partial answers stay available instead of vanishing behind an
/// error). For demand-driven serving that also avoids grounding the full
/// universe, see core/query_plan.h.
Result<QueryResult> EvaluateQuery(Program* program, const GroundGraph& graph,
                                  const std::vector<Truth>& values,
                                  std::string_view pattern,
                                  ExecutionContext* context = nullptr);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_QUERY_H_
