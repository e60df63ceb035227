// Two second groundings, kept from the library's former grounder modes
// (functions made inline, wrapped in namespace `reference`, the serial
// halves of the budget and emission state only) as test-only references.
// Neither reads engine code, and neither shares the block-batched
// emission pipeline of ground/grounder.cc. Not for use outside tests/.
//
//  * GroundFaithful: the paper's definition of G(Π, Δ) verbatim — every
//    rule with k variables is instantiated with every k-tuple over the
//    universe U (constants of Π and Δ), every atom of Δ is a node, and
//    with include_all_atoms the predicate-node set VP is the full set of
//    ground atoms over U. Feasible only for small inputs; ground_test.cc
//    checks Ground's reduced graph against it after the initial close.
//  * GroundBacktracking: Ground's reduced graph, with every rule's
//    bindings from the seed's tuple-at-a-time backtracking join of its
//    positive EDB literals against Δ, emitted one instance at a time. Its
//    rows come in the join's order rather than the engine's, so it agrees
//    with Ground on atom sets and rule-instance multisets, and arena for
//    arena where Ground reads Δ in place or runs the same join.
//
// Both honour GroundingOptions::record_bindings, max_instances and
// context, ground serially whatever num_threads says, and never consult
// GroundingOptions::edb.
#ifndef TIEBREAK_TESTS_REFERENCE_GROUNDER_H_
#define TIEBREAK_TESTS_REFERENCE_GROUNDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/grounder.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/execution_context.h"
#include "util/status.h"

namespace tiebreak {
namespace reference {
namespace internal {

class ReferenceGrounder {
 public:
  ReferenceGrounder(const Program& program, const Database& database,
                    const GroundingOptions& options)
      : program_(program),
        database_(database),
        options_(options),
        exec_(options.context) {}

  Result<GroundingResult> Run(bool faithful, bool include_all_atoms) {
    if (exec_ != nullptr) {
      Status entry = exec_->Checkpoint("ground", 1);
      if (!entry.ok()) return entry;
    }
    universe_ = ComputeUniverse(program_, database_);
    ctx_.graph = &graph_;
    // Δ's IDB atoms always become nodes: they carry initial truth values.
    // EDB atoms of Δ are nodes only without the EDB reduction.
    for (PredId p = 0; p < database_.num_predicates(); ++p) {
      if (program_.IsEdb(p) && !faithful) continue;
      const int32_t arity = database_.arity(p);
      const ConstId* data = database_.FactData(p);
      const int64_t facts = database_.NumFacts(p);
      for (int64_t row = 0; row < facts; ++row) {
        graph_.atoms().Intern(p, data + row * arity, arity);
      }
    }
    if (include_all_atoms) {
      Status s = InternAllAtoms();
      if (!s.ok()) return s;
    }
    for (int32_t r = 0; r < program_.num_rules(); ++r) {
      Status s = faithful ? GroundRuleFaithful(r)
                          : GroundRuleReducedLegacy(&ctx_, r);
      if (!s.ok()) return s;
    }
    if (exec_ != nullptr) {
      Status final_check = exec_->CheckNow("ground");
      if (!final_check.ok()) return final_check;
    }
    graph_.Finalize();
    GroundingResult result;
    result.graph = std::move(graph_);
    return result;
  }

 private:
  // Budget increments between two context checkpoints.
  static constexpr int64_t kWorkFlushBlock = 256;

  struct EmitContext {
    GroundGraph* graph = nullptr;
    Tuple binding;
    Tuple scratch_tuple;
    std::vector<AtomId> scratch_pos;
    std::vector<AtomId> scratch_neg;
    std::vector<size_t> scratch_odo;
  };

  static Status Exhausted() {
    return Status::ResourceExhausted(
        "grounding exceeded max_instances budget");
  }

  // Budget bookkeeping: one unit per explored binding / emitted instance.
  Status Budget(EmitContext* /*ctx*/) {
    if (++work_ > options_.max_instances) return Exhausted();
    if (exec_ != nullptr && (work_ & (kWorkFlushBlock - 1)) == 0) {
      Status s = exec_->Checkpoint("ground", kWorkFlushBlock);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  Status InternAllAtoms() {
    for (PredId p = 0; p < program_.num_predicates(); ++p) {
      const int32_t arity = program_.predicate(p).arity;
      if (arity > 0 && universe_.empty()) continue;
      Tuple tuple(arity, arity > 0 ? universe_.front() : 0);
      std::vector<size_t> odo(arity, 0);
      while (true) {
        Status s = Budget(&ctx_);
        if (!s.ok()) return s;
        graph_.atoms().Intern(p, tuple.data(), arity);
        int32_t pos = arity - 1;
        while (pos >= 0) {
          if (++odo[pos] < universe_.size()) {
            tuple[pos] = universe_[odo[pos]];
            break;
          }
          odo[pos] = 0;
          tuple[pos] = universe_.front();
          --pos;
        }
        if (pos < 0) break;
      }
    }
    return Status::Ok();
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

  // ----------------------------- faithful ---------------------------------

  Status GroundRuleFaithful(int32_t rule_index) {
    const Rule& rule = program_.rule(rule_index);
    const int32_t k = rule.num_variables;
    if (k > 0 && universe_.empty()) return Status::Ok();
    Tuple binding(k, k > 0 ? universe_.front() : 0);
    std::vector<size_t> odo(k, 0);
    while (true) {
      Status s = Budget(&ctx_);
      if (!s.ok()) return s;
      EmitFaithfulInstance(rule_index, rule, binding);
      int32_t pos = k - 1;
      while (pos >= 0) {
        if (++odo[pos] < universe_.size()) {
          binding[pos] = universe_[odo[pos]];
          break;
        }
        odo[pos] = 0;
        binding[pos] = universe_.front();
        --pos;
      }
      if (pos < 0) break;
    }
    return Status::Ok();
  }

  void EmitFaithfulInstance(int32_t rule_index, const Rule& rule,
                            const Tuple& binding) {
    EmitContext* ctx = &ctx_;
    ctx->scratch_pos.clear();
    ctx->scratch_neg.clear();
    for (const Literal& literal : rule.body) {
      SubstituteInto(literal.atom, binding, &ctx->scratch_tuple);
      const AtomId atom = graph_.atoms().Intern(
          literal.atom.predicate, ctx->scratch_tuple.data(),
          static_cast<int32_t>(ctx->scratch_tuple.size()));
      (literal.positive ? ctx->scratch_pos : ctx->scratch_neg)
          .push_back(atom);
    }
    SubstituteInto(rule.head, binding, &ctx->scratch_tuple);
    const AtomId head = graph_.atoms().Intern(
        rule.head.predicate, ctx->scratch_tuple.data(),
        static_cast<int32_t>(ctx->scratch_tuple.size()));
    graph_.AppendRule(
        rule_index, head, ctx->scratch_pos.data(),
        static_cast<int32_t>(ctx->scratch_pos.size()),
        ctx->scratch_neg.data(),
        static_cast<int32_t>(ctx->scratch_neg.size()), binding.data(),
        options_.record_bindings ? static_cast<int32_t>(binding.size()) : 0);
  }

  // ----------------------------- reduced ----------------------------------

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

  // Reduced grounding of one rule: tuple-at-a-time backtracking join of
  // the generators against Δ, each match emitted at once.
  Status GroundRuleReducedLegacy(EmitContext* ctx, int32_t rule_index) {
    const Rule& rule = program_.rule(rule_index);
    const std::vector<int32_t> generators = GeneratorsOf(rule);
    ctx->binding.assign(rule.num_variables, -1);
    return MatchGenerators(ctx, rule_index, rule, generators, 0,
                           &ctx->binding);
  }

  Status MatchGenerators(EmitContext* ctx, int32_t rule_index,
                         const Rule& rule,
                         const std::vector<int32_t>& generators, size_t g,
                         Tuple* binding) {
    if (g == generators.size()) {
      return EnumerateFreeVariables(ctx, rule_index, rule, binding);
    }
    const Atom& atom = rule.body[generators[g]].atom;
    const PredId pred = atom.predicate;
    const int32_t arity = database_.arity(pred);
    const ConstId* data = database_.FactData(pred);
    const int64_t facts = database_.NumFacts(pred);
    for (int64_t row = 0; row < facts; ++row) {
      const ConstId* tuple = data + row * arity;
      Status s = Budget(ctx);
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
        s = MatchGenerators(ctx, rule_index, rule, generators, g + 1,
                            binding);
        if (!s.ok()) return s;
      }
      for (int32_t var : bound_here) (*binding)[var] = -1;
    }
    return Status::Ok();
  }

  Status EnumerateFreeVariables(EmitContext* ctx, int32_t rule_index,
                                const Rule& rule, Tuple* binding) {
    std::vector<int32_t> free_vars;
    for (int32_t v = 0; v < rule.num_variables; ++v) {
      if ((*binding)[v] < 0) free_vars.push_back(v);
    }
    return EnumerateOver(ctx, rule_index, rule, free_vars, binding);
  }

  // Emits one instance per assignment of `free_vars` over the universe
  // (one instance outright when `free_vars` is empty). The odometer lives
  // in context scratch. Leaves the free variables reset to -1.
  Status EnumerateOver(EmitContext* ctx, int32_t rule_index, const Rule& rule,
                       const std::vector<int32_t>& free_vars,
                       Tuple* binding) {
    if (!free_vars.empty() && universe_.empty()) return Status::Ok();
    ctx->scratch_odo.assign(free_vars.size(), 0);
    for (int32_t var : free_vars) (*binding)[var] = universe_.front();
    while (true) {
      Status s = Budget(ctx);
      if (!s.ok()) {
        for (int32_t var : free_vars) (*binding)[var] = -1;
        return s;
      }
      EmitReducedInstance(ctx, rule_index, rule, *binding);
      int32_t pos = static_cast<int32_t>(free_vars.size()) - 1;
      while (pos >= 0) {
        if (++ctx->scratch_odo[pos] < universe_.size()) {
          (*binding)[free_vars[pos]] = universe_[ctx->scratch_odo[pos]];
          break;
        }
        ctx->scratch_odo[pos] = 0;
        (*binding)[free_vars[pos]] = universe_.front();
        --pos;
      }
      if (pos < 0) break;
    }
    for (int32_t var : free_vars) (*binding)[var] = -1;
    return Status::Ok();
  }

  void EmitReducedInstance(EmitContext* ctx, int32_t rule_index,
                           const Rule& rule, const Tuple& binding) {
    GroundAtomStore& atoms = ctx->graph->atoms();
    ctx->scratch_pos.clear();
    ctx->scratch_neg.clear();
    for (const Literal& literal : rule.body) {
      const PredId pred = literal.atom.predicate;
      if (program_.IsEdb(pred)) {
        if (literal.positive) continue;  // matched against Δ already
        // Negated EDB literal: a true EDB atom kills the instance outright
        // (the first close would delete this rule node); a false one is a
        // satisfied literal and leaves no edge.
        SubstituteInto(literal.atom, binding, &ctx->scratch_tuple);
        if (database_.ContainsRow(pred, ctx->scratch_tuple.data())) return;
        continue;
      }
      SubstituteInto(literal.atom, binding, &ctx->scratch_tuple);
      const AtomId atom = atoms.Intern(
          pred, ctx->scratch_tuple.data(),
          static_cast<int32_t>(ctx->scratch_tuple.size()));
      (literal.positive ? ctx->scratch_pos : ctx->scratch_neg)
          .push_back(atom);
    }
    SubstituteInto(rule.head, binding, &ctx->scratch_tuple);
    const AtomId head = atoms.Intern(
        rule.head.predicate, ctx->scratch_tuple.data(),
        static_cast<int32_t>(ctx->scratch_tuple.size()));
    ctx->graph->AppendRule(
        rule_index, head, ctx->scratch_pos.data(),
        static_cast<int32_t>(ctx->scratch_pos.size()),
        ctx->scratch_neg.data(),
        static_cast<int32_t>(ctx->scratch_neg.size()), binding.data(),
        options_.record_bindings ? static_cast<int32_t>(binding.size()) : 0);
  }

  const Program& program_;
  const Database& database_;
  const GroundingOptions& options_;
  ExecutionContext* const exec_;
  std::vector<ConstId> universe_;
  GroundGraph graph_;
  int64_t work_ = 0;
  EmitContext ctx_;
};

}  // namespace internal

/// The paper's G(Π, Δ): every rule instantiated with every tuple over U,
/// every atom of Δ a node, and with `include_all_atoms` every ground atom
/// over U a node too. See the file comment.
inline Result<GroundingResult> GroundFaithful(
    const Program& program, const Database& database,
    bool include_all_atoms = false, const GroundingOptions& options = {}) {
  TIEBREAK_CHECK_EQ(program.num_predicates(), database.num_predicates())
      << "database was built for a different program";
  internal::ReferenceGrounder grounder(program, database, options);
  return grounder.Run(/*faithful=*/true, include_all_atoms);
}

/// Ground's reduced graph, every rule's bindings from the backtracking
/// join. See the file comment.
inline Result<GroundingResult> GroundBacktracking(
    const Program& program, const Database& database,
    const GroundingOptions& options = {}) {
  TIEBREAK_CHECK_EQ(program.num_predicates(), database.num_predicates())
      << "database was built for a different program";
  internal::ReferenceGrounder grounder(program, database, options);
  return grounder.Run(/*faithful=*/false, /*include_all_atoms=*/false);
}

}  // namespace reference
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_REFERENCE_GROUNDER_H_
