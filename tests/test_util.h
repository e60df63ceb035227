// Shared helpers for the test suites: parse program+database text, ground,
// compare two graphs arena for arena, query models by predicate/constant
// names, and check a bottom-up evaluation against the perfect model.
#ifndef TIEBREAK_TESTS_TEST_UTIL_H_
#define TIEBREAK_TESTS_TEST_UTIL_H_

#include <optional>
#include <string>
#include <vector>

#include "ground/grounder.h"
#include "ground/truth.h"
#include "gtest/gtest.h"
#include "lang/database.h"
#include "lang/parser.h"
#include "lang/program.h"
#include "reference_grounder.h"
#include "reference_interpreters.h"
#include "util/span.h"

namespace tiebreak {
namespace testing_util {

struct Instance {
  Program program;
  Database database;
};

inline Instance ParseInstance(const std::string& program_text,
                              const std::string& database_text = "") {
  Result<Program> p = ParseProgram(program_text);
  EXPECT_TRUE(p.ok()) << p.status().ToString() << "\n" << program_text;
  Program program = std::move(p).value();
  Result<Database> d = ParseDatabase(database_text, &program);
  EXPECT_TRUE(d.ok()) << d.status().ToString() << "\n" << database_text;
  return Instance{std::move(program), std::move(d).value()};
}

inline GroundingResult GroundOrDie(const Instance& inst,
                                   const GroundingOptions& options = {}) {
  Result<GroundingResult> g = Ground(inst.program, inst.database, options);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

template <typename T>
std::vector<T> ToVector(Span<T> span) {
  return std::vector<T>(span.begin(), span.end());
}

/// Arena-for-arena equality of two finalized graphs (ids, offsets, bodies,
/// bindings — everything a snapshot persists plus what Finalize derives).
inline void ExpectGraphsEqual(const GroundGraph& a, const GroundGraph& b) {
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  ASSERT_EQ(a.num_rules(), b.num_rules());
  EXPECT_EQ(ToVector(a.atoms().atom_predicates()),
            ToVector(b.atoms().atom_predicates()));
  EXPECT_EQ(ToVector(a.atoms().arg_offsets()),
            ToVector(b.atoms().arg_offsets()));
  EXPECT_EQ(ToVector(a.atoms().arg_arena()), ToVector(b.atoms().arg_arena()));
  EXPECT_EQ(ToVector(a.rule_indices()), ToVector(b.rule_indices()));
  EXPECT_EQ(ToVector(a.heads()), ToVector(b.heads()));
  EXPECT_EQ(ToVector(a.pos_ends()), ToVector(b.pos_ends()));
  EXPECT_EQ(ToVector(a.body_offsets()), ToVector(b.body_offsets()));
  EXPECT_EQ(ToVector(a.body_arena()), ToVector(b.body_arena()));
  EXPECT_EQ(ToVector(a.binding_offsets()), ToVector(b.binding_offsets()));
  EXPECT_EQ(ToVector(a.binding_arena()), ToVector(b.binding_arena()));
  // Derived inverse indexes must rebuild identically.
  for (AtomId atom = 0; atom < a.num_atoms(); ++atom) {
    EXPECT_EQ(ToVector(a.Supporters(atom)), ToVector(b.Supporters(atom)));
    EXPECT_EQ(ToVector(a.PositiveConsumers(atom)),
              ToVector(b.PositiveConsumers(atom)));
    EXPECT_EQ(ToVector(a.NegativeConsumers(atom)),
              ToVector(b.NegativeConsumers(atom)));
  }
}

/// Truth of pred(constants...) in `values`; atoms missing from the store
/// read as false (they are false in every model over the graph).
inline Truth TruthOf(const Instance& inst, const GroundingResult& ground,
                     const std::vector<Truth>& values, const std::string& pred,
                     const std::vector<std::string>& constants = {}) {
  const PredId p = inst.program.LookupPredicate(pred);
  EXPECT_GE(p, 0) << "unknown predicate " << pred;
  Tuple tuple;
  for (const std::string& c : constants) {
    const ConstId id = inst.program.LookupConstant(c);
    EXPECT_GE(id, 0) << "unknown constant " << c;
    tuple.push_back(id);
  }
  const AtomId atom = ground.graph.atoms().Lookup(p, tuple);
  if (atom < 0) return Truth::kFalse;
  return values[atom];
}

/// Checks a bottom-up evaluation's `result` against the perfect model of
/// the instance (tests/reference_interpreters.h), grounded by the
/// backtracking join of tests/reference_grounder.h so that no engine code
/// runs on the reference side: `result` holds an IDB fact iff its atom is
/// true in the perfect model. `label` names the instance in failure
/// messages.
inline void ExpectMatchesPerfectModel(const Program& program,
                                      const Database& database,
                                      const Database& result,
                                      const std::string& label) {
  const Result<GroundingResult> ground =
      reference::GroundBacktracking(program, database);
  ASSERT_TRUE(ground.ok()) << label << ": " << ground.status().ToString();
  const GroundGraph& graph = ground->graph;
  const std::optional<std::vector<Truth>> perfect =
      reference::PerfectModel(program, database, graph);
  ASSERT_TRUE(perfect.has_value()) << label << ": not locally stratified";
  std::vector<int64_t> true_atoms(program.num_predicates(), 0);
  int64_t mismatches = 0;
  std::string first;
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    const PredId pred = graph.atoms().PredicateOf(a);
    if (program.IsEdb(pred)) continue;
    const bool expected = (*perfect)[a] == Truth::kTrue;
    if (expected) ++true_atoms[pred];
    if (result.Contains(pred, graph.atoms().TupleOf(a)) != expected &&
        mismatches++ == 0) {
      first = program.predicate_name(pred) + " atom " + std::to_string(a) +
              (expected ? " missing" : " derived");
    }
  }
  EXPECT_EQ(mismatches, 0) << label << ": first " << first;
  // Every fact of `result` is an atom of the graph.
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    if (program.IsEdb(p)) continue;
    EXPECT_EQ(result.NumFacts(p), true_atoms[p])
        << label << ": " << program.predicate_name(p);
  }
}

}  // namespace testing_util
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_TEST_UTIL_H_
