#include "lang/transform.h"

#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <vector>

namespace tiebreak {

namespace {

// The variables a rule binds "sideways" for demand purposes: variables at
// the head's bound positions plus every variable of a positive EDB body
// literal. IDB body literals do not bind (EDB-only sideways information
// passing — coarser adornments, never unsound).
std::vector<char> BoundVariables(const Program& program, const Rule& rule,
                                 const std::string& head_adornment) {
  std::vector<char> bound(rule.num_variables, 0);
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    const Term& term = rule.head.args[i];
    if (head_adornment[i] == 'b' && term.is_variable()) {
      bound[term.index] = 1;
    }
  }
  for (const Literal& lit : rule.body) {
    if (!lit.positive || !program.IsEdb(lit.atom.predicate)) continue;
    for (const Term& term : lit.atom.args) {
      if (term.is_variable()) bound[term.index] = 1;
    }
  }
  return bound;
}

// The adornment one body occurrence induces: a position is bound iff its
// term is a constant or a variable the rule binds.
std::string OccurrenceAdornment(const Atom& atom,
                                const std::vector<char>& bound) {
  std::string adorn(atom.args.size(), 'f');
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const Term& term = atom.args[i];
    if (term.is_constant() || bound[term.index]) adorn[i] = 'b';
  }
  return adorn;
}

// Appends to `out` an atom over `magic_pred` holding `atom`'s arguments at
// the bound positions of `adornment`.
Atom MagicAtom(PredId magic_pred, const Atom& atom,
               const std::string& adornment) {
  Atom out;
  out.predicate = magic_pred;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (adornment[i] == 'b') out.args.push_back(atom.args[i]);
  }
  return out;
}

// Renumbers `rule`'s variables densely in order of first occurrence
// (head, then body), pulling names from `names` (the source rule's
// variable_names). AddRule requires compact indexes.
void CompactVariables(const std::vector<std::string>& names, Rule* rule) {
  std::vector<int32_t> remap(names.size(), -1);
  rule->variable_names.clear();
  auto visit = [&](Atom* atom) {
    for (Term& term : atom->args) {
      if (!term.is_variable()) continue;
      if (remap[term.index] < 0) {
        remap[term.index] = static_cast<int32_t>(rule->variable_names.size());
        rule->variable_names.push_back(names[term.index]);
      }
      term.index = remap[term.index];
    }
  };
  visit(&rule->head);
  for (Literal& lit : rule->body) visit(&lit.atom);
  rule->num_variables = static_cast<int32_t>(rule->variable_names.size());
}

}  // namespace

Result<Program> RenamePredicates(
    const Program& program,
    const std::map<std::string, std::string>& renames) {
  // Compute final names and detect collisions.
  std::vector<std::string> names(program.num_predicates());
  std::set<std::string> seen;
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    const std::string& old_name = program.predicate_name(p);
    auto it = renames.find(old_name);
    names[p] = it == renames.end() ? old_name : it->second;
    if (!seen.insert(names[p]).second) {
      return Status::InvalidArgument("renaming collides on predicate name " +
                                     names[p]);
    }
  }
  Program out;
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    const PredId id =
        out.DeclarePredicate(names[p], program.predicate(p).arity);
    TIEBREAK_CHECK_EQ(id, p);  // ids preserved, rules copy verbatim
  }
  for (ConstId c = 0; c < program.num_constants(); ++c) {
    out.InternConstant(program.constant_name(c));
  }
  for (const Rule& rule : program.rules()) out.AddRule(rule);
  Status s = out.Validate();
  if (!s.ok()) return s;
  return out;
}

Result<Program> MergePrograms(const Program& a, const Program& b) {
  Program out = a;

  // b's predicates/constants map into the merged tables by name.
  std::vector<PredId> pred_map(b.num_predicates());
  for (PredId p = 0; p < b.num_predicates(); ++p) {
    const std::string& name = b.predicate(p).name;
    const PredId existing = out.LookupPredicate(name);
    if (existing >= 0 &&
        out.predicate(existing).arity != b.predicate(p).arity) {
      return Status::InvalidArgument(
          "predicate " + name + " has arity " +
          std::to_string(out.predicate(existing).arity) + " vs " +
          std::to_string(b.predicate(p).arity) + " across the programs");
    }
    pred_map[p] = out.DeclarePredicate(name, b.predicate(p).arity);
  }
  std::vector<ConstId> const_map(b.num_constants());
  for (ConstId c = 0; c < b.num_constants(); ++c) {
    const_map[c] = out.InternConstant(b.constant_name(c));
  }
  auto remap_atom = [&](Atom atom) {
    atom.predicate = pred_map[atom.predicate];
    for (Term& term : atom.args) {
      if (term.is_constant()) term.index = const_map[term.index];
    }
    return atom;
  };
  for (const Rule& rule : b.rules()) {
    Rule remapped = rule;
    remapped.head = remap_atom(remapped.head);
    for (Literal& lit : remapped.body) lit.atom = remap_atom(lit.atom);
    out.AddRule(std::move(remapped));
  }
  Status s = out.Validate();
  if (!s.ok()) return s;
  return out;
}

Result<DemandTransform> MagicSetTransform(const Program& program,
                                          PredId query_pred,
                                          std::string_view adornment) {
  const int32_t P = program.num_predicates();
  if (query_pred < 0 || query_pred >= P) {
    return Status::InvalidArgument("query predicate id " +
                                   std::to_string(query_pred) +
                                   " out of range");
  }
  if (program.IsEdb(query_pred)) {
    return Status::InvalidArgument(
        "query predicate " + program.predicate_name(query_pred) +
        " is EDB — demand transformation applies to IDB queries");
  }
  const int32_t query_arity = program.predicate(query_pred).arity;
  if (static_cast<int32_t>(adornment.size()) != query_arity) {
    return Status::InvalidArgument(
        "adornment '" + std::string(adornment) + "' has " +
        std::to_string(adornment.size()) + " positions, predicate " +
        program.predicate_name(query_pred) + " has arity " +
        std::to_string(query_arity));
  }
  for (const char c : adornment) {
    if (c != 'b' && c != 'f') {
      return Status::InvalidArgument("adornment '" + std::string(adornment) +
                                     "' must be 'b'/'f' per argument");
    }
  }

  DemandTransform out;
  out.adornments.assign(P, "");
  out.magic.assign(P, -1);
  out.edb_used.assign(P, 0);

  // Merged-adornment fixpoint. One adornment per predicate: the AND over
  // the query pattern (for the query predicate) and every body occurrence
  // in a relevant rule. Weakening a predicate's adornment (or reaching a
  // new predicate) re-processes its own rules — occurrences weaken
  // monotonically, so the loop terminates.
  std::vector<char> relevant(P, 0);
  relevant[query_pred] = 1;
  out.adornments[query_pred] = std::string(adornment);
  std::deque<PredId> worklist{query_pred};
  std::vector<char> queued(P, 0);
  queued[query_pred] = 1;
  while (!worklist.empty()) {
    const PredId p = worklist.front();
    worklist.pop_front();
    queued[p] = 0;
    for (const int32_t rule_id : program.RulesWithHead(p)) {
      const Rule& rule = program.rule(rule_id);
      const std::vector<char> bound =
          BoundVariables(program, rule, out.adornments[p]);
      for (const Literal& lit : rule.body) {
        const PredId q = lit.atom.predicate;
        if (program.IsEdb(q)) continue;
        std::string occ = OccurrenceAdornment(lit.atom, bound);
        if (relevant[q]) {
          for (size_t i = 0; i < occ.size(); ++i) {
            if (out.adornments[q][i] == 'f') occ[i] = 'f';
          }
          if (occ == out.adornments[q]) continue;
        }
        relevant[q] = 1;
        out.adornments[q] = std::move(occ);
        if (!queued[q]) {
          queued[q] = 1;
          worklist.push_back(q);
        }
      }
    }
  }

  // The shared vocabulary: original predicates and constants at their
  // original ids in both programs (the constant table is shared, not
  // copied), then the magic predicates (ascending original id, so both
  // programs agree), then `demand`'s seed predicate last. '$' cannot appear
  // in parsed identifiers, so the generated names never collide with user
  // predicates.
  out.demand = program.CopyVocabulary();
  out.guarded = program.CopyVocabulary();
  for (PredId p = 0; p < P; ++p) {
    if (!relevant[p]) continue;
    const int32_t bound_arity = static_cast<int32_t>(
        std::count(out.adornments[p].begin(), out.adornments[p].end(), 'b'));
    const std::string name = "$magic_" + program.predicate_name(p);
    out.magic[p] = out.demand.DeclarePredicate(name, bound_arity);
    TIEBREAK_CHECK_EQ(out.guarded.DeclarePredicate(name, bound_arity),
                      out.magic[p]);
  }
  for (int32_t i = 0; i < query_arity; ++i) {
    if (out.adornments[query_pred][i] == 'b') out.seed_positions.push_back(i);
  }
  const int32_t seed_arity =
      static_cast<int32_t>(out.seed_positions.size());
  out.seed = out.demand.DeclarePredicate("$seed", seed_arity);

  // Seed rule: $magic_q(B0..Bk-1) :- $seed(B0..Bk-1).
  {
    Rule seed_rule;
    seed_rule.head.predicate = out.magic[query_pred];
    Literal seed_lit;
    seed_lit.atom.predicate = out.seed;
    for (int32_t i = 0; i < seed_arity; ++i) {
      seed_rule.head.args.push_back(Term::Variable(i));
      seed_lit.atom.args.push_back(Term::Variable(i));
      seed_rule.variable_names.push_back("B" + std::to_string(i));
    }
    seed_rule.num_variables = seed_arity;
    seed_rule.body.push_back(std::move(seed_lit));
    out.demand.AddRule(std::move(seed_rule));
  }

  // Per relevant rule: the guarded copy for phase 2, and one magic rule
  // per IDB body occurrence for phase 1.
  for (PredId p = 0; p < P; ++p) {
    if (!relevant[p]) continue;
    for (const int32_t rule_id : program.RulesWithHead(p)) {
      const Rule& rule = program.rule(rule_id);
      const Atom head_guard =
          MagicAtom(out.magic[p], rule.head, out.adornments[p]);

      Rule guarded_rule = rule;
      guarded_rule.body.insert(guarded_rule.body.begin(),
                               Literal{head_guard, true});
      out.guarded.AddRule(std::move(guarded_rule));

      const std::vector<char> bound =
          BoundVariables(program, rule, out.adornments[p]);
      // EDB context shared by this rule's magic rules: positive EDB
      // literals always; negated ones only when fully bound (safety) —
      // dropping a negated literal only widens the demanded cone.
      std::vector<Literal> edb_context;
      for (const Literal& lit : rule.body) {
        if (!program.IsEdb(lit.atom.predicate)) continue;
        bool safe = true;
        if (!lit.positive) {
          for (const Term& term : lit.atom.args) {
            if (term.is_variable() && !bound[term.index]) safe = false;
          }
        }
        if (safe) {
          edb_context.push_back(lit);
          out.edb_used[lit.atom.predicate] = 1;
        }
      }
      for (const Literal& lit : rule.body) {
        const PredId q = lit.atom.predicate;
        if (program.IsEdb(q)) continue;
        Rule magic_rule;
        magic_rule.head = MagicAtom(out.magic[q], lit.atom,
                                    out.adornments[q]);
        magic_rule.body.push_back(Literal{head_guard, true});
        for (const Literal& edb : edb_context) magic_rule.body.push_back(edb);
        CompactVariables(rule.variable_names, &magic_rule);
        out.demand.AddRule(std::move(magic_rule));
      }
    }
  }

  Status s = out.demand.Validate();
  if (!s.ok()) return s;
  s = out.guarded.Validate();
  if (!s.ok()) return s;
  return out;
}

}  // namespace tiebreak
