#include "core/structural_totality.h"

#include <algorithm>
#include <span>

#include "core/stratification.h"
#include "graph/scc.h"
#include "graph/tie.h"
#include "lang/program_graph.h"

namespace tiebreak {

std::vector<bool> UselessPredicates(const Program& program) {
  const int32_t n = program.num_predicates();
  // Worklist computation of the *useful* predicates: Q is useful when some
  // rule with head Q has all its positive body literals EDB or useful.
  std::vector<bool> useful(n, false);
  // Per rule: number of positive IDB body literals not yet known useful.
  std::vector<int32_t> blockers(program.num_rules(), 0);
  // positive-IDB-occurrence predicate -> rules it blocks.
  std::vector<std::vector<int32_t>> blocked_rules(n);
  std::vector<PredId> queue;

  auto mark_useful = [&](PredId p) {
    if (useful[p]) return;
    useful[p] = true;
    queue.push_back(p);
  };

  for (int32_t r = 0; r < program.num_rules(); ++r) {
    const Rule& rule = program.rule(r);
    for (const Literal& lit : rule.body) {
      if (lit.positive && !program.IsEdb(lit.atom.predicate)) {
        ++blockers[r];
        blocked_rules[lit.atom.predicate].push_back(r);
      }
    }
    if (blockers[r] == 0) mark_useful(rule.head.predicate);
  }
  while (!queue.empty()) {
    const PredId p = queue.back();
    queue.pop_back();
    for (int32_t r : blocked_rules[p]) {
      // A rule may reference p several times; each occurrence was counted.
      if (--blockers[r] == 0) mark_useful(program.rule(r).head.predicate);
    }
  }

  std::vector<bool> useless(n, false);
  for (PredId p = 0; p < n; ++p) {
    useless[p] = !program.IsEdb(p) && !useful[p];
  }
  return useless;
}

ReducedProgram ReduceProgram(const Program& program) {
  const std::vector<bool> useless = UselessPredicates(program);
  ReducedProgram reduced;
  // Preserve predicate and constant ids.
  reduced.program = program.CopyVocabulary();
  for (int32_t r = 0; r < program.num_rules(); ++r) {
    const Rule& rule = program.rule(r);
    bool drop = false;
    for (const Literal& lit : rule.body) {
      if (lit.positive && useless[lit.atom.predicate]) {
        drop = true;  // a positive occurrence of an (empty) useless predicate
        break;
      }
    }
    if (drop) continue;
    Rule kept;
    kept.head = rule.head;
    kept.num_variables = rule.num_variables;
    kept.variable_names = rule.variable_names;
    std::vector<int32_t> body_map;
    for (int32_t b = 0; b < static_cast<int32_t>(rule.body.size()); ++b) {
      const Literal& lit = rule.body[b];
      if (!lit.positive && useless[lit.atom.predicate]) {
        continue;  // ¬(empty relation) is always true: drop the literal
      }
      kept.body.push_back(lit);
      body_map.push_back(b);
    }
    reduced.program.AddRule(std::move(kept));
    reduced.original_rule_index.push_back(r);
    reduced.original_body_index.push_back(std::move(body_map));
  }
  TIEBREAK_CHECK(reduced.program.Validate().ok());
  return reduced;
}

bool IsStructurallyTotal(const Program& program) {
  return IsCallConsistent(program);
}

bool IsStructurallyNonuniformlyTotal(const Program& program) {
  return IsCallConsistent(ReduceProgram(program).program);
}

bool IsStructurallyWellFoundedTotal(const Program& program) {
  return IsStratified(program);
}

bool IsStructurallyNonuniformlyWellFoundedTotal(const Program& program) {
  return IsStratified(ReduceProgram(program).program);
}

std::vector<ComponentReport> AnalyzeComponents(const Program& program) {
  const ProgramGraph pg = BuildProgramGraph(program);
  const SccResult scc = ComputeScc(pg.graph);
  const Condensation cond = CondenseScc(pg.graph, scc);

  // Count internal negative edges per component.
  std::vector<int32_t> negatives(scc.num_components, 0);
  for (int32_t e = 0; e < pg.graph.num_edges(); ++e) {
    const SignedEdge& edge = pg.graph.edge(e);
    if (edge.negative && scc.component[edge.from] == scc.component[edge.to]) {
      ++negatives[scc.component[edge.to]];
    }
  }

  std::vector<ComponentReport> reports;
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    if (!cond.has_internal_edge[comp]) continue;
    ComponentReport report;
    const std::span<const int32_t> members = scc.Members(comp);
    report.predicates.assign(members.begin(), members.end());
    std::sort(report.predicates.begin(), report.predicates.end());
    report.internal_negative_edges = negatives[comp];
    if (negatives[comp] == 0) {
      report.kind = ComponentReport::Kind::kPositive;
    } else if (CheckTie(pg.graph, members, scc.component, comp)
                   .is_tie) {
      report.kind = ComponentReport::Kind::kTie;
    } else {
      report.kind = ComponentReport::Kind::kOdd;
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace tiebreak
