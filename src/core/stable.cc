#include "core/stable.h"

#include "util/execution_context.h"
#include "util/span.h"

namespace tiebreak {

namespace {

// Queue pops between resource checkpoints in the counter pass; each pop
// walks one atom's positive consumers.
constexpr int32_t kStablePollBlock = 256;

}  // namespace

bool IsStable(const Program& program, const Database& database,
              const GroundGraph& graph, const std::vector<Truth>& values) {
  // Ungoverned, the check cannot trip: the Result always holds a verdict.
  return IsStableGoverned(program, database, graph, values, nullptr).value();
}

Result<bool> IsStableGoverned(const Program& program, const Database& database,
                              const GroundGraph& graph,
                              const std::vector<Truth>& values,
                              ExecutionContext* context) {
  const int32_t n = graph.num_atoms();
  TIEBREAK_CHECK_EQ(static_cast<int32_t>(values.size()), n);
  if (context != nullptr) {
    // The sweep is one linear scan of the rule arenas; charge it as a
    // single checkpoint.
    Status entry = context->Checkpoint("stable", graph.num_rules() + 1);
    if (!entry.ok()) return entry;
  }
  // One sweep does the fixpoint test and seeds the least model of the
  // reduct Π^M: Δ atoms, and the heads of true-bodied rules without a
  // positive body (their reduct rule is a fact). It reads bodies straight
  // from the rule arenas: through PositiveBody and NegativeBody, whose
  // per-call id checks are redundant here, it ran about 1.4x slower.
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  std::vector<char> is_edb(program.num_predicates(), 0);
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    is_edb[p] = program.IsEdb(p) ? 1 : 0;
  }
  const Span<PredId> predicate = graph.atoms().atom_predicates();
  const Span<AtomId> head = graph.heads();
  // Rule r's body is body[offset[r] .. offset[r + 1]), positive literals
  // before pos_end[r].
  const Span<int64_t> offset = graph.body_offsets();
  const Span<int64_t> pos_end = graph.pos_ends();
  const Span<AtomId> body = graph.body_arena();
  const auto negative_false = [&](int32_t r) {
    for (int64_t i = pos_end[r]; i < offset[r + 1]; ++i) {
      if (values[body[i]] != Truth::kFalse) return false;
    }
    return true;
  };
  std::vector<char> derived(n, 0);
  int32_t underived = 0;  // true atoms the seeds do not cover
  for (AtomId a = 0; a < n; ++a) {
    if (values[a] == Truth::kUndef) return false;  // not total
    const bool is_true = values[a] == Truth::kTrue;
    bool supported = in_delta[a] != 0;
    bool fact = supported;
    if (!supported && !is_edb[predicate[a]]) {
      for (const int32_t r : graph.Supporters(a)) {
        bool body_true = true;
        for (int64_t i = offset[r]; i < pos_end[r] && body_true; ++i) {
          body_true = values[body[i]] == Truth::kTrue;
        }
        if (!body_true || !negative_false(r)) continue;
        supported = true;
        if (!is_true) break;  // a false atom with a true body: not a fixpoint
        // A true atom keeps looking for a supporter that derives it outright.
        if (offset[r] == pos_end[r]) {
          fact = true;
          break;
        }
      }
    }
    if (is_true != supported) return false;  // not a fixpoint
    if (!is_true) continue;
    if (fact) {
      derived[a] = 1;
    } else {
      ++underived;
    }
  }
  if (underived == 0) return true;
  // Some true atom is supported only through positive bodies: close the
  // derived set under the reduct (Dowling–Gallier). M is a fixpoint, so a
  // rule whose positive body is derived fires in Π^M iff its negative
  // atoms are false in M, and then its head is true in M.
  std::vector<int32_t> missing(graph.num_rules(), -1);  // -1 = not reached
  std::vector<AtomId> queue;
  for (AtomId a = 0; a < n; ++a) {
    if (derived[a]) queue.push_back(a);
  }
  int32_t popped = 0;
  while (!queue.empty()) {
    if (context != nullptr && (++popped & (kStablePollBlock - 1)) == 0) {
      Status governed = context->Checkpoint("stable", kStablePollBlock);
      if (!governed.ok()) return governed;
    }
    const AtomId a = queue.back();
    queue.pop_back();
    // One entry per body occurrence, so duplicated literals count twice.
    for (const int32_t r : graph.PositiveConsumers(a)) {
      if (missing[r] < 0) {
        missing[r] = static_cast<int32_t>(pos_end[r] - offset[r]);
      }
      if (--missing[r] > 0 || derived[head[r]] || !negative_false(r)) {
        continue;
      }
      derived[head[r]] = 1;
      if (--underived == 0) return true;
      queue.push_back(head[r]);
    }
  }
  return false;
}

}  // namespace tiebreak
