// Agreement suite for the columnar grounding pipeline: the engine-backed
// grounder must produce exactly the same ground graph as the legacy
// backtracking-join grounder kept in tests/reference_grounder.h (atoms,
// rule-instance multiset, adjacency), the CSR consumer/supporter indexes
// must match a naive rebuild from the rule arenas, and the semantics
// computed over both graphs (close, largest unfounded set, well-founded =
// alternating, tie-breaking validity) must agree. Runs over every
// ground_test program family plus randomized propositional/unary/binary
// programs in the fuzz_test / property_test style. Every binding route is
// covered: rules whose one generator lists distinct variables in ascending
// order read their rows straight from Δ, other rules with generators get
// theirs from the engine, rules the engine cannot hold from the
// backtracking join, and a rule with no generator has one zero-column row.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/fixpoint.h"
#include "core/stable.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "engine/evaluation.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "reference_grounder.h"
#include "reference_interpreters.h"
#include "test_util.h"
#include "util/execution_context.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::ExpectGraphsEqual;
using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

// Canonical, order-independent key of a ground atom.
using AtomKey = std::pair<PredId, Tuple>;

AtomKey KeyOf(const GroundGraph& graph, AtomId atom) {
  return {graph.atoms().PredicateOf(atom), graph.atoms().TupleOf(atom)};
}

// Canonical key of a rule instance: originating rule plus the atom keys of
// head and both body sides (body order preserved — both grounders emit
// body atoms in rule-literal order, and parallel edges must keep their
// multiplicity).
struct InstanceKey {
  int32_t rule_index;
  AtomKey head;
  std::vector<AtomKey> positive_body;
  std::vector<AtomKey> negative_body;

  friend bool operator==(const InstanceKey&, const InstanceKey&) = default;
  friend auto operator<=>(const InstanceKey&, const InstanceKey&) = default;
};

InstanceKey InstanceKeyOf(const GroundGraph& graph, int32_t r) {
  InstanceKey key;
  key.rule_index = graph.RuleIndexOf(r);
  key.head = KeyOf(graph, graph.HeadOf(r));
  for (AtomId a : graph.PositiveBody(r)) {
    key.positive_body.push_back(KeyOf(graph, a));
  }
  for (AtomId a : graph.NegativeBody(r)) {
    key.negative_body.push_back(KeyOf(graph, a));
  }
  return key;
}

// Checks the CSR consumer/supporter indexes of `graph` against a naive
// rebuild from the per-rule spans.
void ExpectCsrIndexesConsistent(const GroundGraph& graph) {
  const int32_t n = graph.num_atoms();
  std::vector<std::vector<int32_t>> supporters(n), pos(n), neg(n);
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    supporters[graph.HeadOf(r)].push_back(r);
    for (AtomId a : graph.PositiveBody(r)) pos[a].push_back(r);
    for (AtomId a : graph.NegativeBody(r)) neg[a].push_back(r);
  }
  int64_t edges = graph.num_rules();
  for (AtomId a = 0; a < n; ++a) {
    const IdSpan sup_span = graph.Supporters(a);
    const IdSpan pos_span = graph.PositiveConsumers(a);
    const IdSpan neg_span = graph.NegativeConsumers(a);
    ASSERT_EQ(std::vector<int32_t>(sup_span.begin(), sup_span.end()),
              supporters[a])
        << "atom " << a;
    ASSERT_EQ(std::vector<int32_t>(pos_span.begin(), pos_span.end()), pos[a])
        << "atom " << a;
    ASSERT_EQ(std::vector<int32_t>(neg_span.begin(), neg_span.end()), neg[a])
        << "atom " << a;
    edges += static_cast<int64_t>(pos_span.size()) +
             static_cast<int64_t>(neg_span.size());
  }
  EXPECT_EQ(graph.num_edges(), edges);
}

// Checks that the flat atom store views agree with each other and that
// DeltaAtomMask matches per-atom Database::Contains.
void ExpectAtomStoreConsistent(const Instance& inst,
                               const GroundGraph& graph) {
  const std::vector<char> mask =
      DeltaAtomMask(inst.database, graph.atoms());
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    const Tuple tuple = graph.atoms().TupleOf(a);
    const IdSpan args = graph.atoms().ArgsOf(a);
    ASSERT_EQ(graph.atoms().ArityOf(a),
              static_cast<int32_t>(tuple.size()));
    ASSERT_EQ(Tuple(args.begin(), args.end()), tuple);
    ASSERT_EQ(graph.atoms().Lookup(graph.atoms().PredicateOf(a), tuple), a);
    ASSERT_EQ(mask[a] != 0,
              inst.database.Contains(graph.atoms().PredicateOf(a), tuple))
        << "atom " << a;
  }
}

// Structural agreement between two groundings of the same instance: same
// atom set (ids may differ; compared via keys) and the same rule-instance
// multiset. This is the equivalence contract shared by the engine-vs-legacy
// and the parallel-vs-serial grounder comparisons.
void ExpectGraphsAgree(const GroundingResult& actual,
                       const GroundingResult& expected) {
  ASSERT_EQ(actual.graph.num_atoms(), expected.graph.num_atoms());
  for (AtomId a = 0; a < expected.graph.num_atoms(); ++a) {
    EXPECT_GE(actual.graph.atoms().Lookup(
                  expected.graph.atoms().PredicateOf(a),
                  expected.graph.atoms().TupleOf(a)),
              0)
        << "expected atom " << a << " missing from the actual graph";
  }

  ASSERT_EQ(actual.graph.num_rules(), expected.graph.num_rules());
  std::vector<InstanceKey> actual_rules, expected_rules;
  for (int32_t r = 0; r < actual.graph.num_rules(); ++r) {
    actual_rules.push_back(InstanceKeyOf(actual.graph, r));
    expected_rules.push_back(InstanceKeyOf(expected.graph, r));
  }
  std::sort(actual_rules.begin(), actual_rules.end());
  std::sort(expected_rules.begin(), expected_rules.end());
  ASSERT_EQ(actual_rules, expected_rules);
}

// Semantic agreement by atom key: close() values and the well-founded
// model computed over both graphs must coincide atom-for-atom.
void ExpectSemanticsAgree(const Instance& inst, const GroundingResult& actual,
                          const GroundingResult& expected) {
  CloseState actual_close(inst.program, inst.database, actual.graph);
  CloseState expected_close(inst.program, inst.database, expected.graph);
  const InterpreterResult actual_wf =
      WellFounded(inst.program, inst.database, actual.graph);
  const InterpreterResult expected_wf =
      WellFounded(inst.program, inst.database, expected.graph);
  for (AtomId a = 0; a < expected.graph.num_atoms(); ++a) {
    const AtomId b = actual.graph.atoms().Lookup(
        expected.graph.atoms().PredicateOf(a),
        expected.graph.atoms().TupleOf(a));
    ASSERT_GE(b, 0);
    EXPECT_EQ(actual_close.Value(b), expected_close.Value(a))
        << "atom " << a;
    EXPECT_EQ(actual_wf.values[b], expected_wf.values[a]) << "atom " << a;
  }
}

// The legacy grounding of `inst`: every rule's bindings from the
// backtracking join, emitted one instance at a time.
GroundingResult GroundLegacy(const Instance& inst,
                             const GroundingOptions& options = {}) {
  Result<GroundingResult> g =
      reference::GroundBacktracking(inst.program, inst.database, options);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

// Grounds `inst` with Ground and with the legacy grounder and checks full
// structural and semantic agreement.
void ExpectEngineMatchesLegacy(const Instance& inst) {
  const GroundingResult engine = GroundOrDie(inst);
  const GroundingResult legacy = GroundLegacy(inst);

  ExpectGraphsAgree(engine, legacy);

  // CSR inverse indexes match a naive rebuild, on both graphs.
  ExpectCsrIndexesConsistent(engine.graph);
  ExpectCsrIndexesConsistent(legacy.graph);
  ExpectAtomStoreConsistent(inst, engine.graph);

  // Semantic agreement, by atom key. close() and the largest unfounded
  // set are uniquely determined (confluence), as is the well-founded
  // model (checked against the alternating fixpoint on both graphs).
  CloseState engine_close(inst.program, inst.database, engine.graph);
  CloseState legacy_close(inst.program, inst.database, legacy.graph);
  const InterpreterResult engine_wf =
      WellFounded(inst.program, inst.database, engine.graph);
  const InterpreterResult legacy_wf =
      WellFounded(inst.program, inst.database, legacy.graph);
  const InterpreterResult engine_alt =
      reference::AlternatingFixpointWellFounded(inst.program, inst.database,
                                                engine.graph);
  EXPECT_EQ(engine_wf.values, engine_alt.values);

  std::map<AtomKey, Truth> engine_unfounded;
  for (AtomId a : engine_close.LargestUnfoundedSet()) {
    engine_unfounded[KeyOf(engine.graph, a)] = Truth::kFalse;
  }
  std::map<AtomKey, Truth> legacy_unfounded;
  for (AtomId a : legacy_close.LargestUnfoundedSet()) {
    legacy_unfounded[KeyOf(legacy.graph, a)] = Truth::kFalse;
  }
  EXPECT_EQ(engine_unfounded, legacy_unfounded);

  for (AtomId a = 0; a < legacy.graph.num_atoms(); ++a) {
    const AtomId b = engine.graph.atoms().Lookup(
        legacy.graph.atoms().PredicateOf(a),
        legacy.graph.atoms().TupleOf(a));
    ASSERT_GE(b, 0);
    EXPECT_EQ(engine_close.Value(b), legacy_close.Value(a)) << "atom " << a;
    EXPECT_EQ(engine_wf.values[b], legacy_wf.values[a]) << "atom " << a;
  }

  // Tie-breaking choices may legitimately differ between the two graphs
  // (tie order follows atom order), so runs are checked for validity on
  // each graph: WFTB extends WF, is consistent/supported, and is stable
  // when total.
  for (const auto& pair : {std::make_pair(&engine, &engine_wf),
                           std::make_pair(&legacy, &legacy_wf)}) {
    const GroundingResult& g = *pair.first;
    const InterpreterResult& wf = *pair.second;
    const InterpreterResult wftb = TieBreaking(
        inst.program, inst.database, g.graph, TieBreakingMode::kWellFounded);
    EXPECT_TRUE(IsConsistent(inst.program, inst.database, g.graph,
                             wftb.values));
    EXPECT_TRUE(TrueAtomsSupported(inst.program, inst.database, g.graph,
                                   wftb.values));
    for (AtomId a = 0; a < g.graph.num_atoms(); ++a) {
      if (wf.values[a] != Truth::kUndef) {
        EXPECT_EQ(wftb.values[a], wf.values[a]) << "atom " << a;
      }
    }
    if (wftb.total) {
      EXPECT_TRUE(
          IsStable(inst.program, inst.database, g.graph, wftb.values));
    }
  }
}

// Grounds `inst` serially (the bit-identical reference) and with 2 and 8
// worker threads, and checks that every parallel grounding agrees
// structurally (atom set, rule-instance multiset) and semantically
// (close/WF values by atom key) with the serial one, which agrees
// structurally with the legacy grounder.
void ExpectParallelMatchesSerial(const Instance& inst) {
  GroundingOptions serial_options;
  serial_options.num_threads = 1;
  const GroundingResult serial = GroundOrDie(inst, serial_options);
  ExpectGraphsAgree(GroundLegacy(inst), serial);
  for (const int32_t threads : {2, 8}) {
    GroundingOptions parallel_options;
    parallel_options.num_threads = threads;
    const GroundingResult parallel = GroundOrDie(inst, parallel_options);
    ExpectGraphsAgree(parallel, serial);
    ExpectCsrIndexesConsistent(parallel.graph);
    ExpectSemanticsAgree(inst, parallel, serial);
  }
}

// Steps a 1-thread grounding of `inst` charges to a fresh context. Below
// 256 binding rows the grounder charges only its entry checkpoint, one
// step; an engine run adds its own entry checkpoint and kernel blocks. So
// on these small inputs, more than one step means the engine ran.
int64_t GroundingSteps(const Instance& inst) {
  ExecutionContext context;
  GroundingOptions options;
  options.context = &context;
  GroundOrDie(inst, options);
  return context.steps_charged();
}

// Checkpoints a grounding of `inst` at `threads` passes. The serial path
// checkpoints once per 256 units of work; a grounding on the pool
// checkpoints once per 256 units of each emission job, and once more for
// a job's remainder when it ends. The job list is fixed by the input, so
// the count is deterministic, and one above the 1-thread count shows that
// the pool ran. (A pool whose every job is a multiple of 256 units would
// tie; the inputs below are not.)
int64_t GroundingCheckpoints(const Instance& inst, int32_t threads) {
  ExecutionContext context;
  GroundingOptions options;
  options.num_threads = threads;
  options.context = &context;
  fault_injection::CountCheckpoints();
  GroundOrDie(inst, options);
  const int64_t checkpoints = fault_injection::CheckpointsObserved();
  fault_injection::Disarm();
  return checkpoints;
}

// Expects `inst` to fill enough emission shards that its 2- and 8-thread
// groundings run on the pool instead of the serial path.
void ExpectPooled(const Instance& inst) {
  const int64_t serial = GroundingCheckpoints(inst, 1);
  for (const int32_t threads : {2, 8}) {
    EXPECT_GT(GroundingCheckpoints(inst, threads), serial)
        << "threads=" << threads;
  }
}

// An FNV-style hash, one arena entry per step, over every arena a serial
// grounding fixes: the atom store's predicates, offsets and arguments, and
// the rule arenas.
uint64_t ArenaDigest(const GroundGraph& graph) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](auto span) {
    h = (h ^ span.size()) * 1099511628211ULL;
    for (const auto value : span) {
      h = (h ^ static_cast<uint64_t>(value)) * 1099511628211ULL;
    }
  };
  mix(graph.atoms().atom_predicates());
  mix(graph.atoms().arg_offsets());
  mix(graph.atoms().arg_arena());
  mix(graph.rule_indices());
  mix(graph.heads());
  mix(graph.pos_ends());
  mix(graph.body_offsets());
  mix(graph.body_arena());
  return h;
}

// A program with one rule on each binding route, for the thread-count
// tests below.
Program MixedRoutesProgram() {
  Result<Program> parsed = ParseProgram(
      "win(X) :- move(X, Y), not win(Y).\n"
      "lost(Y) :- move(X, Y), win(X).\n"
      "loop(X) :- move(X, X).\n"
      "hub(X) :- move(X, n0), not lost(X).\n"
      "back(X) :- move(X, n1), move(n1, X), not win(X).");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

// win/move over a random digraph of `nodes` positions and `edges` moves.
Instance WinMoveBoard(int32_t nodes, int32_t edges, uint64_t seed) {
  Program program = WinMoveProgram();
  Rng rng(seed);
  Database database =
      *RandomDigraphDatabase(&program, "move", nodes, edges, &rng);
  return Instance{std::move(program), std::move(database)};
}

// Rules whose one generator lists distinct variables in ascending order
// take Δ's arena as their binding relation. The legacy grounder walks the
// same sorted rows, so at 1 thread the two graphs agree element for
// element, with and without recorded bindings, and no engine runs.
TEST(GroundCsrTest, DirectRouteMatchesLegacyArenas) {
  std::string wide_args = "X0";
  for (int i = 1; i <= kEngineMaxArity; ++i) {
    wide_args += ", X" + std::to_string(i);
  }
  std::string wide_fact = "c0";
  for (int i = 1; i <= kEngineMaxArity; ++i) {
    wide_fact += i % 2 == 0 ? ", c0" : ", c1";
  }
  std::vector<Instance> instances;
  instances.push_back(ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, a). move(c, d). move(d, d)."));
  instances.push_back(ParseInstance("p(X) :- e(X), not q(X).",
                                    "e(a). e(b). e(c). q(b)."));
  // A negated-EDB kill literal between IDB literals, a residual free
  // variable (Z, enumerated over U), and an IDB fact of Δ.
  instances.push_back(ParseInstance(
      "r(X, Y) :- s(X), e(X, Y), not blocked(Y), not r(Y, X).\n"
      "s(X) :- v(X).\n"
      "f(X, Z) :- v(X), not s(Z).",
      "e(a, b). e(b, a). e(b, c). e(c, c). blocked(c). v(a). v(b). "
      "r(c, a)."));
  // A generator wider than the engine's arity cap: the direct route reads
  // it in place and never asks the engine.
  instances.push_back(ParseInstance(
      "w(X0) :- big(" + wide_args + "), not w(X" +
          std::to_string(kEngineMaxArity) + ").",
      "big(" + wide_fact + "). big(c1" + wide_fact.substr(2) + ")."));
  // An identity rule over an empty relation: the route follows the shape.
  instances.push_back(ParseInstance("p(X) :- e(X), not p(X).\nq :- not p(a).",
                                    ""));
  {
    Program program = WinMoveProgram();
    Rng rng(3);
    Database database =
        *RandomDigraphDatabase(&program, "move", 48, 120, &rng);
    instances.push_back(Instance{std::move(program), std::move(database)});
  }
  for (size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    SCOPED_TRACE("instance " + std::to_string(i));
    EXPECT_EQ(GroundingSteps(inst), 1);
    for (const bool record : {false, true}) {
      GroundingOptions options;
      options.record_bindings = record;
      ExpectGraphsEqual(GroundOrDie(inst, options).graph,
                        GroundLegacy(inst, options).graph);
    }
    ExpectEngineMatchesLegacy(inst);
  }
}

// Every other generator shape keeps the engine route, and agrees with the
// legacy grounder structurally and semantically.
TEST(GroundCsrTest, EngineRouteShapesMatchLegacy) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Permuted variables: Y is variable 0, so e(X, Y) is e(#1, #0).
      {"p(Y) :- e(X, Y), not p(X).", "e(a, b). e(b, c). e(c, a)."},
      // A constant.
      {"p(X) :- e(X, c), not q(X).\nq(X) :- e(c, X).",
       "e(a, c). e(b, d). e(c, a). e(c, c)."},
      // A repeated variable.
      {"p(X) :- e(X, X), not p(X).", "e(a, a). e(a, b). e(b, b)."},
      // A zero-arity generator, alone and beside a unary one.
      {"p :- go, not q.\nq :- go, not p.", "go."},
      {"p(X) :- go, e(X), not p(X).", "go. e(a). e(b)."},
      // A non-identity rule over an empty relation.
      {"p(Y) :- e(X, Y), not q(Y).\nr :- not p(a).", ""},
  };
  for (const auto& [program_text, database_text] : cases) {
    SCOPED_TRACE(program_text);
    const Instance inst = ParseInstance(program_text, database_text);
    EXPECT_GT(GroundingSteps(inst), 1);
    ExpectEngineMatchesLegacy(inst);
  }
}

// One program whose rules take both routes, on a board large enough that
// binding relations split into row shards: serial, 2 and 8 threads agree
// with each other and with the legacy grounder.
TEST(GroundCsrTest, MixedRoutesAcrossThreadCounts) {
  Program program = MixedRoutesProgram();
  Rng rng(41);
  Database database =
      *RandomDigraphDatabase(&program, "move", 1024, 4096, &rng);
  const Instance inst{std::move(program), std::move(database)};
  ExpectParallelMatchesSerial(inst);
  ExpectEngineMatchesLegacy(inst);
}

// p(X) has no generator: one zero-column binding row that the odometer
// expands over U (24 constants). r's two free variables intern p(X)
// before the negated-EDB kill not e(Y, X) decides the instance.
Instance GeneratorFreeInstance() {
  std::string db;
  for (int32_t i = 0; i < 24; ++i) {
    db += "e(c" + std::to_string(i) + ", c" + std::to_string(i * 7 % 24) +
          "). ";
    if (i % 3 == 0) db += "q(c" + std::to_string(i) + "). ";
  }
  return ParseInstance(
      "p(X) :- not q(X).\nr(X, Y) :- not p(X), not e(Y, X).", db);
}

// Rules with no variables: one zero-column row each, one instance or a
// kill after the positive literal p interned.
Instance PropositionalInstance() {
  return ParseInstance("p :- not q.\nq :- not p.\nr :- p, not e.\n"
                       "s :- q, not f.",
                       "e.");
}

// The body a(X0, ..., X16), b(X16, ..., X32): two generators of 17
// columns whose join binds 33 variables, past kEngineMaxArity, so the rule
// takes the backtracking join.
std::string WideJoin() {
  std::string a_args = "X0";
  for (int32_t i = 1; i <= 16; ++i) a_args += ", X" + std::to_string(i);
  std::string b_args = "X16";
  for (int32_t i = 17; i <= 32; ++i) b_args += ", X" + std::to_string(i);
  return "a(" + a_args + "), b(" + b_args + ")";
}

// Δ for WideJoin(): `a_rows` facts of a and `b_rows` of b, whose join
// column X16 cycles through `keys` values.
std::string WideJoinFacts(int32_t a_rows, int32_t b_rows, int32_t keys) {
  std::string db;
  for (int32_t i = 0; i < a_rows; ++i) {
    db += "a(c" + std::to_string(i);
    for (int32_t c = 1; c < 16; ++c) db += c == i ? ", m" : ", d";
    db += ", j" + std::to_string(i % keys) + "). ";
  }
  for (int32_t i = 0; i < b_rows; ++i) {
    db += "b(j" + std::to_string(i % keys);
    for (int32_t c = 17; c < 32; ++c) db += c == 17 + i ? ", m" : ", d";
    db += ", t" + std::to_string(i) + "). ";
  }
  return db;
}

// 16 bindings of WideJoin(). The second rule adds a free variable,
// enumerated over U, and a negated-EDB kill after an IDB literal.
Instance WideJoinInstance() {
  return ParseInstance("w(X0) :- " + WideJoin() + ", not w(X32).\n" +
                           "v(X0, Z) :- " + WideJoin() +
                           ", not v(Z, X0), not k(X32).",
                       WideJoinFacts(8, 6, 3) + "k(t1). k(t4).");
}

// A 1-thread grounding's arenas are pinned. Dense atom tables change which
// table dedupes an atom, never the order atoms are interned in, so these
// digests, taken from a grounder that dedupes every atom through the hash
// table, must hold. The boards and the program with Δ facts of its IDB
// predicates (interned before the dense tables are reserved) take the
// dense path. The last three digests were taken from the grounder that
// emitted generator-free rules and backtracking-join rows one instance at
// a time, so they pin the block pipeline's emission of those rows to it.
TEST(GroundCsrTest, SerialArenasArePinned) {
  struct Pinned {
    std::string name;
    Instance inst;
    uint64_t digest;
  };
  std::vector<Pinned> cases;
  cases.push_back({"win_move_curated",
                   ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                 "move(a, b). move(b, c). move(c, a). "
                                 "move(c, d)."),
                   0x242E443CB2B3545AULL});
  cases.push_back({"idb_facts",
                   ParseInstance("p(X) :- e(X), not q(X).\nq(X) :- p(X).",
                                 "e(a). q(a). p(b)."),
                   0x8E8810DBCB813004ULL});
  cases.push_back(
      {"kill_and_free",
       ParseInstance(
           "r(X, Y) :- s(X), e(X, Y), not blocked(Y), not r(Y, X).\n"
           "s(X) :- v(X).\n"
           "f(X, Z) :- v(X), not s(Z).",
           "e(a, b). e(b, a). e(b, c). e(c, c). blocked(c). v(a). v(b). "
           "r(c, a)."),
       0xE0A8A0BE9A6E69CCULL});
  cases.push_back({"odd_even",
                   ParseInstance("odd(X) :- succ(Y, X), even(Y).\n"
                                 "even(X) :- succ(Y, X), odd(Y).\n"
                                 "even(z) :- zero(z).",
                                 "zero(z). succ(z, a). succ(a, b). "
                                 "succ(b, c)."),
                   0x75D01885ED17B03AULL});
  cases.push_back(
      {"win_move_board", WinMoveBoard(1024, 4096, 31), 0xBC4935695B275217ULL});
  {
    Program program = MixedRoutesProgram();
    Rng rng(41);
    Database database =
        *RandomDigraphDatabase(&program, "move", 1024, 4096, &rng);
    cases.push_back({"mixed_routes_board",
                     Instance{std::move(program), std::move(database)},
                     0xEBFA9B126357B1B8ULL});
  }
  {
    Program program = SameGenerationProgram();
    Database database = *BalancedTreeDatabase(&program, 3);
    cases.push_back({"same_generation",
                     Instance{std::move(program), std::move(database)},
                     0xBDEBF977AFFE5E36ULL});
  }
  {
    Program program = StratifiedTowerProgram(4);
    Database database = *UnarySetDatabase(&program, "e", 5);
    cases.push_back({"stratified_tower",
                     Instance{std::move(program), std::move(database)},
                     0xB1D41BF545FDB73DULL});
  }
  cases.push_back(
      {"generator_free", GeneratorFreeInstance(), 0x2116E80C65392E29ULL});
  cases.push_back(
      {"propositional", PropositionalInstance(), 0xAB4BF5977B9732ADULL});
  cases.push_back({"wide_join", WideJoinInstance(), 0xAE1354B18EF25F63ULL});
  for (const Pinned& pinned : cases) {
    SCOPED_TRACE(pinned.name);
    const GroundingResult g = GroundOrDie(pinned.inst);
    EXPECT_EQ(ArenaDigest(g.graph), pinned.digest);
  }
}

// Trips groundings of `inst` at 1 and 8 threads at each of their
// checkpoints in turn, and under instance budgets below the one they
// need: each checkpoint trip returns the context's status, each budget
// trip RESOURCE_EXHAUSTED, the budget needed is the same at both thread
// counts, and a clean rerun equals the untripped grounding.
void ExpectGroundingTripsCleanly(const Instance& inst) {
  const GroundingResult clean = GroundOrDie(inst);
  int64_t needed = 0;
  for (const int32_t threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    GroundingOptions options;
    options.num_threads = threads;
    const int64_t checkpoints = GroundingCheckpoints(inst, threads);
    ASSERT_GE(checkpoints, 2);
    for (int64_t n = 0; n < checkpoints; ++n) {
      fault_injection::TripAtCheckpoint(n);
      ExecutionContext context;
      options.context = &context;
      Result<GroundingResult> g = Ground(inst.program, inst.database, options);
      fault_injection::Disarm();
      ASSERT_FALSE(g.ok()) << "checkpoint " << n;
      EXPECT_TRUE(context.stopped()) << "checkpoint " << n;
      EXPECT_EQ(g.status().code(), context.status().code())
          << "checkpoint " << n;
      EXPECT_EQ(g.status().code(), StatusCode::kCancelled)
          << "checkpoint " << n;
    }
    options.context = nullptr;
    if (threads == 1) {
      // Every budget below the work the grounding charges trips.
      for (;; ++needed) {
        options.max_instances = needed;
        Result<GroundingResult> g =
            Ground(inst.program, inst.database, options);
        if (g.ok()) break;
        ASSERT_EQ(g.status().code(), StatusCode::kResourceExhausted)
            << "max_instances " << needed;
      }
    } else {
      options.max_instances = needed - 1;
      Result<GroundingResult> over =
          Ground(inst.program, inst.database, options);
      ASSERT_FALSE(over.ok());
      EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
      options.max_instances = needed;
      EXPECT_TRUE(Ground(inst.program, inst.database, options).ok());
    }
    options.max_instances = GroundingOptions{}.max_instances;
    const GroundingResult rerun = GroundOrDie(inst, options);
    if (threads == 1) {
      ExpectGraphsEqual(rerun.graph, clean.graph);
    } else {
      ExpectGraphsAgree(rerun, clean);
    }
  }
}

// Every rule emits through the one block pipeline: a rule with no
// generator as one zero-column row, a rule whose join binds more variables
// than the engine holds as the backtracking join's rows. Both reproduce
// the legacy grounder's arenas, agree across thread counts, and unwind
// from trips.
TEST(GroundCsrTest, GeneratorFreeAndFallbackRulesShareThePipeline) {
  const std::pair<std::string, Instance> cases[] = {
      {"generator_free", GeneratorFreeInstance()},
      {"propositional", PropositionalInstance()},
      {"wide_join", WideJoinInstance()},
  };
  for (const auto& [name, inst] : cases) {
    SCOPED_TRACE(name);
    for (const bool record : {false, true}) {
      GroundingOptions options;
      options.record_bindings = record;
      ExpectGraphsEqual(GroundOrDie(inst, options).graph,
                        GroundLegacy(inst, options).graph);
    }
    ExpectEngineMatchesLegacy(inst);
    ExpectParallelMatchesSerial(inst);
    ExpectGroundingTripsCleanly(inst);
  }
  // p and r count a whole emission shard each, so the pool runs them.
  ExpectPooled(GeneratorFreeInstance());
  // 2,112 join rows split into two row shards of the pool.
  const Instance wide = ParseInstance(
      "w(X0) :- " + WideJoin() + ", not w(X32).", WideJoinFacts(64, 66, 2));
  ASSERT_EQ(GroundOrDie(wide).graph.num_rules(), 64 * 33);
  ExpectGraphsEqual(GroundOrDie(wide).graph, GroundLegacy(wide).graph);
  ExpectParallelMatchesSerial(wide);
  ExpectPooled(wide);
}

// A generator wider than kEngineMaxArity that binds one variable sends
// only its own rule to the backtracking join: the engine still serves the
// other rule with several generators, and the graph is the legacy
// grounder's.
TEST(GroundCsrTest, WideGeneratorFallsBackAlone) {
  std::string same = "X";
  std::string fact_a = "a";
  std::string fact_b = "b";
  for (int32_t i = 1; i <= kEngineMaxArity; ++i) {
    same += ", X";
    fact_a += ", a";
    fact_b += ", b";
  }
  const Instance inst = ParseInstance(
      "w(X) :- big(" + same + "), not w(X).\n"
      "two(X, Z) :- e(X, Y), e(Y, Z), not two(Z, X).",
      "big(" + fact_a + "). big(" + fact_b + "). e(a, b). e(b, a). "
      "e(b, c).");
  EXPECT_GT(GroundingSteps(inst), 1);  // the engine ran
  const GroundingResult g = GroundOrDie(inst);
  EXPECT_EQ(g.graph.num_rules(), 2 + 3);
  ExpectGraphsEqual(g.graph, GroundLegacy(inst).graph);
  ExpectEngineMatchesLegacy(inst);
}

// A predicate wider than kEngineMaxArity that no rule reads changes no
// route: win reads move in place and two joins move with itself on the
// engine, so a 4,000-position chain grounds to the same graph with and
// without a 33-column fact in Δ. (When the cap applied to every declared
// predicate, the wide fact sent two to the backtracking join, whose
// 3,999 × 3,999 explored bindings passed the default budget.)
TEST(GroundCsrTest, UnreadWidePredicateKeepsTheEngineRoute) {
  const std::string program_text =
      "win(X) :- move(X, Y), not win(Y).\n"
      "two(X, Z) :- move(X, Y), move(Y, Z).";
  std::string db;
  for (int32_t i = 0; i + 1 < 4000; ++i) {
    db += "move(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
          "). ";
  }
  std::string wide = "wide(c0";
  for (int32_t i = 1; i <= kEngineMaxArity; ++i) {
    wide += ", c" + std::to_string(i);
  }
  wide += ").";
  const Instance plain = ParseInstance(program_text, db);
  const Instance with_wide = ParseInstance(program_text, db + wide);
  const GroundingResult g = GroundOrDie(with_wide);
  EXPECT_EQ(g.graph.num_rules(), 7997);
  ExpectGraphsEqual(g.graph, GroundOrDie(plain).graph);
  EXPECT_GT(GroundingSteps(with_wide), 1);  // the engine ran
}

// A unary IDB predicate gets a dense atom table when its rules' binding
// rows number at least num_constants / 8. A small cone over a large
// constant table stays on the hash table, as do EDB predicates and wider
// IDB predicates; either way the graph is the legacy grounder's.
TEST(GroundCsrTest, DenseTablesFollowTheRowRule) {
  const std::string program_text =
      "win(X) :- move(X, Y), not win(Y).\n"
      "reach(X, Y) :- move(X, Y).";
  for (const int32_t moves : {16, 400}) {
    SCOPED_TRACE("moves=" + std::to_string(moves));
    // A chain of `moves` edges beside 1,000 constants no rule binds.
    std::string db;
    for (int32_t i = 0; i < moves; ++i) {
      db += "move(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            "). ";
    }
    for (int32_t i = 0; i < 1000; ++i) {
      db += "other(m" + std::to_string(i) + "). ";
    }
    const Instance inst = ParseInstance(program_text, db);
    const int32_t constants = inst.program.num_constants();
    ASSERT_EQ(moves >= constants / 8, moves == 400);
    const GroundingResult g = GroundOrDie(inst);
    const GroundAtomStore& atoms = g.graph.atoms();
    EXPECT_EQ(atoms.dense_range(inst.program.LookupPredicate("win")),
              moves == 400 ? constants : 0);
    EXPECT_EQ(atoms.dense_range(inst.program.LookupPredicate("reach")), 0);
    EXPECT_EQ(atoms.dense_range(inst.program.LookupPredicate("move")), 0);
    ExpectGraphsEqual(g.graph, GroundLegacy(inst).graph);
    ExpectAtomStoreConsistent(inst, g.graph);
  }
}

// A shard reserves a dense table only for its share of the rows. On this
// sparse board the 4,000 win rows reach num_constants / 8 (2,048), so the
// serial graph and the merge target are dense, while an eighth of them
// falls short and each of 8 shards dedupes win through its hash table;
// the merge then remaps hashed shard atoms into the dense target.
TEST(GroundCsrTest, ShardsReserveDenseTablesForTheirShareOfRows) {
  const Instance board = WinMoveBoard(16384, 4000, 17);
  const PredId win = board.program.LookupPredicate("win");
  const int64_t rows =
      board.database.NumFacts(board.program.LookupPredicate("move"));
  const int32_t constants = board.program.num_constants();
  ASSERT_GE(rows, constants / 8);
  ASSERT_LT((rows + 7) / 8, constants / 8);
  const GroundingResult serial = GroundOrDie(board);
  EXPECT_EQ(serial.graph.atoms().dense_range(win), constants);
  for (const int32_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    GroundingOptions options;
    options.num_threads = threads;
    const GroundingResult parallel = GroundOrDie(board, options);
    EXPECT_EQ(parallel.graph.atoms().dense_range(win), constants);
    ExpectGraphsAgree(parallel, serial);
    ExpectCsrIndexesConsistent(parallel.graph);
    ExpectAtomStoreConsistent(board, parallel.graph);
  }
  ExpectPooled(board);
}

// Below two emission shards of binding rows, a grounding asked for several
// threads spawns no pool and takes the serial path: its arenas are the
// 1-thread arenas exactly.
TEST(GroundCsrTest, SmallGroundingsStaySerialAtAnyThreadCount) {
  Program program = MixedRoutesProgram();
  Rng rng(41);
  Database database =
      *RandomDigraphDatabase(&program, "move", 200, 400, &rng);
  const Instance inst{std::move(program), std::move(database)};
  const GroundingResult serial = GroundOrDie(inst);
  for (const int32_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    GroundingOptions options;
    options.num_threads = threads;
    ExpectGraphsEqual(GroundOrDie(inst, options).graph, serial.graph);
  }
}

// max_instances and context trips surface the same statuses on both routes
// at every thread count: the binding rows of a direct rule count against
// the instance budget exactly as the engine's rows do. The second board
// fills enough emission shards to take the pool.
TEST(GroundCsrTest, DirectRouteBudgetsAndTrips) {
  for (const char* text : {"win(X) :- move(X, Y), not win(Y).",
                           "win(Y) :- move(X, Y), not win(X)."}) {
    const std::pair<int32_t, int32_t> boards[] = {{256, 512}, {1024, 4096}};
    for (const auto& [nodes, moves] : boards) {
      SCOPED_TRACE(std::string(text) + " moves=" + std::to_string(moves));
      Result<Program> parsed = ParseProgram(text);
      ASSERT_TRUE(parsed.ok());
      Program program = std::move(*parsed);
      Rng rng(5);
      Database database =
          *RandomDigraphDatabase(&program, "move", nodes, moves, &rng);
      const int64_t rows =
          database.NumFacts(program.LookupPredicate("move"));
      for (const int32_t threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        GroundingOptions options;
        options.num_threads = threads;
        // One binding row per instance: exactly `rows` fit.
        options.max_instances = rows;
        Result<GroundingResult> fits = Ground(program, database, options);
        ASSERT_TRUE(fits.ok()) << fits.status().ToString();
        EXPECT_EQ(fits->graph.num_rules(), rows);
        options.max_instances = rows - 1;
        Result<GroundingResult> over = Ground(program, database, options);
        ASSERT_FALSE(over.ok());
        EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
        options.max_instances = GroundingOptions{}.max_instances;

        ResourceLimits steps;
        steps.max_steps = 100;
        ResourceLimits deadline;
        deadline.deadline_seconds = 1e-9;
        const std::pair<ResourceLimits, StatusCode> trips[] = {
            {steps, StatusCode::kResourceExhausted},
            {deadline, StatusCode::kDeadlineExceeded},
            {ResourceLimits{}, StatusCode::kCancelled},
        };
        for (const auto& [limits, code] : trips) {
          ExecutionContext context(limits);
          if (code == StatusCode::kCancelled) context.Cancel();
          options.context = &context;
          Result<GroundingResult> g = Ground(program, database, options);
          ASSERT_FALSE(g.ok());
          EXPECT_EQ(g.status().code(), code);
          EXPECT_TRUE(context.stopped());
          EXPECT_EQ(context.truncation().code, code);
        }
        options.context = nullptr;
      }
      if (moves == 4096) ExpectPooled(Instance{program, database});
    }
  }
}

TEST(GroundCsrTest, ParallelMatchesSerialCurated) {
  ExpectParallelMatchesSerial(ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, a). move(c, d)."));
  ExpectParallelMatchesSerial(
      ParseInstance("P(a) :- not P(X), E(b).", "E(b)."));
  ExpectParallelMatchesSerial(ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).",
      "e(a, b). e(b, c)."));
  ExpectParallelMatchesSerial(ParseInstance(
      "p(X) :- e(X), not blocked(X).\nq(X) :- p(X), e(X).",
      "e(a). e(b). blocked(a)."));
  ExpectParallelMatchesSerial(
      ParseInstance("p :- not q.\nq :- not p.\nr :- p, q.", ""));
  // Rules with residual free variables (the odometer emission path) and a
  // zero-arity generator.
  ExpectParallelMatchesSerial(
      ParseInstance("P(X, Y) :- not P(Y, Y), E(X).", "E(a). E(b)."));
  ExpectParallelMatchesSerial(
      ParseInstance("p(X) :- go, e(X).", "go. e(a). e(b)."));

  // The same shapes at a size that takes the pool: each rule's 2,744
  // binding rows split into two row shards, so the odometer, the
  // zero-arity generator and a dense win table all emit into shards.
  std::string triples = "go. ";
  for (int32_t x = 0; x < 14; ++x) {
    for (int32_t y = 0; y < 14; ++y) {
      for (int32_t w = 0; w < 14; ++w) {
        triples += "t(c" + std::to_string(x) + ", c" + std::to_string(y) +
                   ", c" + std::to_string(w) + "). ";
      }
    }
  }
  const Instance large = ParseInstance(
      "r(X, Z) :- t(X, Y, W), not r(Z, Y).\n"
      "p(X, Y) :- go, t(X, Y, W), not p(Y, X).\n"
      "win(X) :- t(X, Y, W), not win(Y).",
      triples);
  ExpectParallelMatchesSerial(large);
  ExpectPooled(large);
}

TEST(GroundCsrTest, ParallelMatchesSerialWorkloads) {
  {
    // Large enough that binding relations split into several row shards.
    const Instance board = WinMoveBoard(1024, 4096, 31);
    ExpectParallelMatchesSerial(board);
    ExpectPooled(board);
  }
  {
    Program program = SameGenerationProgram();
    Database database = *BalancedTreeDatabase(&program, 3);
    ExpectParallelMatchesSerial(Instance{std::move(program),
                                         std::move(database)});
  }
  {
    Program program = StratifiedTowerProgram(4);
    Database database = *UnarySetDatabase(&program, "e", 5);
    ExpectParallelMatchesSerial(Instance{std::move(program),
                                         std::move(database)});
  }
}

// Ten small rounds, then six whose universes (160 constants for unary
// programs, 28 for binary ones) give every rule thousands of binding rows,
// so the parallel groundings run on the pool.
TEST(GroundCsrTest, ParallelMatchesSerialRandomPrograms) {
  Rng rng(0x7E11);
  for (int round = 0; round < 16; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const bool large = round >= 10;
    RandomProgramOptions options;
    options.arity = 1 + static_cast<int>(rng.Below(2));
    options.num_idb = 3;
    options.num_edb = 2;
    options.num_rules = 3 + static_cast<int>(rng.Below(5));
    options.negation_probability = 0.35;
    Program program = RandomProgram(&rng, options);
    const int32_t constants =
        options.arity == 1 ? (large ? 160 : 4) : (large ? 28 : 3);
    Database database = *RandomEdbDatabase(&program, constants, 0.4, &rng);
    const Instance inst{std::move(program), std::move(database)};
    ExpectParallelMatchesSerial(inst);
    if (large) ExpectPooled(inst);
  }
}

TEST(GroundCsrTest, ParallelRecordedBindingsReproduceInstances) {
  // The parallel path stages bindings in block scratch and MergeFrom
  // shifts them into the final binding arena; every recorded binding must
  // still reproduce its instance's head under substitution. The second
  // board fills enough emission shards to take the parallel path.
  for (const Instance& board :
       {WinMoveBoard(48, 96, 13), WinMoveBoard(1024, 4096, 13)}) {
    const Program& program = board.program;
    for (const int32_t threads : {2, 8}) {
      GroundingOptions options;
      options.num_threads = threads;
      options.record_bindings = true;
      const GroundingResult g =
          Ground(program, board.database, options).value();
      ASSERT_GT(g.graph.num_rules(), 0);
      for (int32_t r = 0; r < g.graph.num_rules(); ++r) {
        const Rule& rule = program.rule(g.graph.RuleIndexOf(r));
        const IdSpan binding = g.graph.BindingOf(r);
        ASSERT_EQ(static_cast<int32_t>(binding.size()), rule.num_variables)
            << "threads=" << threads << " rule " << r;
        Tuple head;
        for (const Term& term : rule.head.args) {
          head.push_back(term.is_constant() ? term.index
                                            : binding[term.index]);
        }
        EXPECT_EQ(g.graph.atoms().TupleOf(g.graph.HeadOf(r)), head)
            << "threads=" << threads << " rule " << r;
      }
    }
  }
}

TEST(GroundCsrTest, ParallelBudgetExhausts) {
  // The shared budget counter must trip in parallel mode exactly as the
  // serial counter does: total work is fixed by the job list. Only the
  // second board fills enough emission shards to take the parallel path.
  for (const Instance& board :
       {WinMoveBoard(256, 512, 5), WinMoveBoard(1024, 4096, 5)}) {
    for (const int32_t threads : {1, 2, 8}) {
      GroundingOptions options;
      options.num_threads = threads;
      options.max_instances = 100;  // far below the ~1k instances
      Result<GroundingResult> g =
          Ground(board.program, board.database, options);
      ASSERT_FALSE(g.ok()) << "threads=" << threads;
      EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted)
          << "threads=" << threads;
    }
  }
}

TEST(GroundCsrTest, ContextStepBudgetTripsAcrossThreadCounts) {
  // Same determinism contract for the unified ExecutionContext budget: the
  // step total is fixed by the workload, so a too-small budget trips at
  // every thread count and surfaces the context's own Status. Only the
  // second board fills enough emission shards to take the parallel path.
  for (const Instance& board :
       {WinMoveBoard(256, 512, 5), WinMoveBoard(1024, 4096, 5)}) {
    for (const int32_t threads : {1, 2, 8}) {
      ResourceLimits limits;
      limits.max_steps = 100;  // far below the pipeline's step total
      ExecutionContext context(limits);
      GroundingOptions options;
      options.num_threads = threads;
      options.context = &context;
      Result<GroundingResult> g =
          Ground(board.program, board.database, options);
      ASSERT_FALSE(g.ok()) << "threads=" << threads;
      EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted)
          << "threads=" << threads;
      EXPECT_TRUE(context.stopped()) << "threads=" << threads;
      EXPECT_EQ(context.truncation().code, StatusCode::kResourceExhausted)
          << "threads=" << threads;
    }
  }
}

// A cancellation injected at any of the first checkpoints of an 8-thread
// grounding big enough to fan out (the entry checkpoint, then the shard
// flushes, which the 4,096 binding rows make at least 16 of) unwinds to
// kCancelled while sibling workers are mid-emission, and a clean rerun
// still agrees with the serial graph.
TEST(GroundCsrTest, ParallelGroundingUnwindsFromTripsMidEmission) {
  const Instance board = WinMoveBoard(1024, 4096, 5);
  GroundingOptions options;
  options.num_threads = 8;
  for (int64_t n = 0; n <= 16; ++n) {
    fault_injection::TripAtCheckpoint(n);
    ExecutionContext context;
    options.context = &context;
    Result<GroundingResult> g = Ground(board.program, board.database, options);
    fault_injection::Disarm();
    ASSERT_FALSE(g.ok()) << "checkpoint " << n;
    EXPECT_EQ(g.status().code(), StatusCode::kCancelled) << "checkpoint " << n;
    EXPECT_TRUE(context.stopped()) << "checkpoint " << n;
  }
  options.context = nullptr;
  const GroundingResult rerun = GroundOrDie(board, options);
  ExpectGraphsAgree(rerun, GroundOrDie(board));
}

TEST(GroundCsrTest, ExpiredDeadlineTripsGroundingAcrossThreadCounts) {
  // A deadline already past at entry trips the grounder's first checkpoint
  // deterministically, before any parallel fan-out.
  Program program = WinMoveProgram();
  Rng rng(5);
  Database database = *RandomDigraphDatabase(&program, "move", 64, 128, &rng);
  for (const int32_t threads : {1, 2, 8}) {
    ResourceLimits limits;
    limits.deadline_seconds = 1e-9;
    ExecutionContext context(limits);
    GroundingOptions options;
    options.num_threads = threads;
    options.context = &context;
    Result<GroundingResult> g = Ground(program, database, options);
    ASSERT_FALSE(g.ok()) << "threads=" << threads;
    EXPECT_EQ(g.status().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads;
  }
}

TEST(GroundCsrTest, PreCancelledContextTripsGroundingAcrossThreadCounts) {
  Program program = WinMoveProgram();
  Rng rng(5);
  Database database = *RandomDigraphDatabase(&program, "move", 64, 128, &rng);
  for (const int32_t threads : {1, 2, 8}) {
    ExecutionContext context;
    context.Cancel();
    GroundingOptions options;
    options.num_threads = threads;
    options.context = &context;
    Result<GroundingResult> g = Ground(program, database, options);
    ASSERT_FALSE(g.ok()) << "threads=" << threads;
    EXPECT_EQ(g.status().code(), StatusCode::kCancelled)
        << "threads=" << threads;
  }
}

TEST(GroundCsrTest, GenerousContextDoesNotPerturbGrounding) {
  // A context with room to spare must not change the grounder's output:
  // same graph as the ungoverned run, and the charges are visible.
  Program program = WinMoveProgram();
  Rng rng(5);
  Database database = *RandomDigraphDatabase(&program, "move", 48, 96, &rng);
  const GroundingResult plain = Ground(program, database).value();
  ResourceLimits limits;
  limits.max_steps = 100'000'000;
  limits.max_bytes = 1'000'000'000;
  limits.deadline_seconds = 3600;
  ExecutionContext context(limits);
  GroundingOptions options;
  options.context = &context;
  const GroundingResult governed =
      Ground(program, database, options).value();
  EXPECT_FALSE(context.stopped());
  EXPECT_GT(context.steps_charged(), 0);
  EXPECT_EQ(governed.graph.num_atoms(), plain.graph.num_atoms());
  EXPECT_EQ(governed.graph.num_rules(), plain.graph.num_rules());
  EXPECT_EQ(governed.graph.num_edges(), plain.graph.num_edges());
}

// A hand-built graph through the RuleInstance builder: the CSR arenas,
// span accessors and inverse indexes must reflect exactly what was added,
// independent of any grounder.
TEST(GroundCsrTest, HandBuiltGraphRoundTrips) {
  GroundGraph graph;
  const AtomId p = graph.atoms().Intern(0, Tuple{});
  const AtomId q = graph.atoms().Intern(1, Tuple{});
  const AtomId r = graph.atoms().Intern(2, Tuple{7});
  RuleInstance inst;
  inst.rule_index = 3;
  inst.head = p;
  inst.positive_body = {q, q};  // parallel edges survive
  inst.negative_body = {r};
  inst.binding = {7};
  graph.AddRuleInstance(inst);
  graph.AppendRule(/*rule_index=*/4, /*head=*/q, nullptr, 0, &p, 1,
                   nullptr, 0);
  graph.Finalize();

  ASSERT_EQ(graph.num_rules(), 2);
  EXPECT_EQ(graph.RuleIndexOf(0), 3);
  EXPECT_EQ(graph.HeadOf(0), p);
  EXPECT_EQ(std::vector<AtomId>(graph.PositiveBody(0).begin(),
                                graph.PositiveBody(0).end()),
            (std::vector<AtomId>{q, q}));
  EXPECT_EQ(std::vector<AtomId>(graph.NegativeBody(0).begin(),
                                graph.NegativeBody(0).end()),
            (std::vector<AtomId>{r}));
  EXPECT_EQ(std::vector<ConstId>(graph.BindingOf(0).begin(),
                                 graph.BindingOf(0).end()),
            (std::vector<ConstId>{7}));
  EXPECT_EQ(graph.BodySize(0), 3);
  EXPECT_TRUE(graph.PositiveBody(1).empty());
  EXPECT_EQ(graph.num_edges(), 2 + 4);
  // Inverse indexes: q feeds rule 0 twice (parallel edge multiplicity).
  EXPECT_EQ(graph.PositiveConsumers(q).size(), 2u);
  EXPECT_EQ(graph.NegativeConsumers(r).size(), 1u);
  EXPECT_EQ(graph.NegativeConsumers(p).size(), 1u);
  EXPECT_EQ(graph.Supporters(p).size(), 1u);
  EXPECT_EQ(graph.Supporters(q).size(), 1u);
  EXPECT_TRUE(graph.Supporters(r).empty());
  ExpectCsrIndexesConsistent(graph);
}

// Recorded bindings must reproduce the instance under substitution.
TEST(GroundCsrTest, RecordedBindingsReproduceInstances) {
  Instance inst = ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, a). move(c, d).");
  GroundingOptions options;
  options.record_bindings = true;
  const GroundingResult g = GroundOrDie(inst, options);
  for (int32_t r = 0; r < g.graph.num_rules(); ++r) {
    const Rule& rule = inst.program.rule(g.graph.RuleIndexOf(r));
    const IdSpan binding = g.graph.BindingOf(r);
    ASSERT_EQ(static_cast<int32_t>(binding.size()), rule.num_variables);
    auto substitute = [&](const Atom& atom) {
      Tuple tuple;
      for (const Term& term : atom.args) {
        tuple.push_back(term.is_constant() ? term.index
                                           : binding[term.index]);
      }
      return tuple;
    };
    EXPECT_EQ(g.graph.atoms().TupleOf(g.graph.HeadOf(r)),
              substitute(rule.head));
  }
  // Without the option, bindings are not recorded.
  const GroundingResult bare = GroundOrDie(inst);
  for (int32_t r = 0; r < bare.graph.num_rules(); ++r) {
    EXPECT_TRUE(bare.graph.BindingOf(r).empty());
  }
}

// The engine's tuple budget counts loaded EDB facts; the grounder must
// charge only binding rows against max_instances, so a large relation no
// rule reads cannot trip the budget.
TEST(GroundCsrTest, UnrelatedEdbFactsDoNotChargeBudget) {
  std::string db = "e(a).";
  for (int i = 0; i < 200; ++i) {
    db += " big(n" + std::to_string(i) + ", m" + std::to_string(i) + ").";
  }
  Instance inst = ParseInstance("p(X) :- e(X), not q(X).\nq(X) :- e(X).", db);
  GroundingOptions options;
  options.max_instances = 100;  // far below the 201 loaded facts
  Result<GroundingResult> g = Ground(inst.program, inst.database, options);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->graph.num_rules(), 2);
}

// DeltaAtomMask skips predicates without atoms only on an indexed store.
// Ground interns no EDB atom, the faithful reference grounding interns
// them all, and a uniform Δ's IDB facts (win(c), and win(z), which no rule
// instance mentions) must be marked either way.
TEST(GroundCsrTest, DeltaAtomMaskIndexedAndUnindexed) {
  Instance inst = ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, d). win(c). win(z).");
  const PredId win = inst.program.LookupPredicate("win");
  const PredId move = inst.program.LookupPredicate("move");
  for (const bool reduce : {true, false}) {
    const GroundingResult g =
        reduce ? GroundOrDie(inst)
               : reference::GroundFaithful(inst.program, inst.database)
                     .value();
    const GroundAtomStore& indexed = g.graph.atoms();
    ASSERT_TRUE(indexed.has_predicate_index());
    EXPECT_EQ(indexed.AtomsOfPredicate(move).empty(), reduce);
    GroundAtomStore unindexed;
    for (AtomId a = 0; a < indexed.size(); ++a) {
      unindexed.Intern(indexed.PredicateOf(a), indexed.TupleOf(a));
    }
    ASSERT_FALSE(unindexed.has_predicate_index());

    const std::vector<char> mask = DeltaAtomMask(inst.database, indexed);
    EXPECT_EQ(DeltaAtomMask(inst.database, unindexed), mask);
    int32_t marked = 0;
    for (AtomId a = 0; a < indexed.size(); ++a) {
      EXPECT_EQ(mask[a] != 0, inst.database.Contains(indexed.PredicateOf(a),
                                                     indexed.TupleOf(a)))
          << "atom " << a;
      marked += mask[a];
    }
    for (const char* name : {"c", "z"}) {
      const AtomId fact =
          indexed.Lookup(win, {inst.program.LookupConstant(name)});
      ASSERT_GE(fact, 0) << name;
      EXPECT_EQ(mask[fact], 1) << name;
    }
    EXPECT_EQ(marked, reduce ? 2 : 5);
  }
}

TEST(GroundCsrTest, CuratedProgramFamilies) {
  // Every program family of ground_test's equivalence suite.
  ExpectEngineMatchesLegacy(ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, a). move(c, d)."));
  ExpectEngineMatchesLegacy(ParseInstance("P(a) :- not P(X), E(b).", "E(b)."));
  ExpectEngineMatchesLegacy(ParseInstance("P(a) :- not P(X), E(b).", ""));
  ExpectEngineMatchesLegacy(
      ParseInstance("P(X, Y) :- not P(Y, Y), E(X).", "E(a)."));
  ExpectEngineMatchesLegacy(
      ParseInstance("p :- not q.\nq :- not p.\nr :- p, q.", ""));
  ExpectEngineMatchesLegacy(ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).",
      "e(a, b). e(b, c)."));
  ExpectEngineMatchesLegacy(ParseInstance(
      "odd(X) :- succ(Y, X), even(Y).\neven(X) :- succ(Y, X), odd(Y).\n"
      "even(z) :- zero(z).",
      "zero(z). succ(z, a). succ(a, b). succ(b, c)."));
  ExpectEngineMatchesLegacy(ParseInstance(
      "p(X) :- e(X), not q(X).\nq(X) :- p(X).", "e(a). q(a). p(b)."));
  ExpectEngineMatchesLegacy(ParseInstance("base(a).\np(X) :- base(X).", ""));
  // Repeated variables and constants inside generator literals.
  ExpectEngineMatchesLegacy(
      ParseInstance("refl(X) :- e(X, X).", "e(a, a). e(a, b). e(b, b)."));
  ExpectEngineMatchesLegacy(ParseInstance(
      "p(X) :- e(a, X), not q(X).\nq(X) :- e(X, X).",
      "e(a, a). e(a, b). e(b, a)."));
  // Duplicate generator literal (parallel edges must be preserved).
  ExpectEngineMatchesLegacy(
      ParseInstance("p(X) :- e(X), e(X), not p(X).", "e(a). e(b)."));
  // Negated-EDB filters and satisfied literals.
  ExpectEngineMatchesLegacy(ParseInstance(
      "p(X) :- e(X), not blocked(X).", "e(a). e(b). blocked(a)."));
  // Zero-arity EDB generator.
  ExpectEngineMatchesLegacy(
      ParseInstance("p(X) :- go, e(X).", "go. e(a). e(b)."));
  ExpectEngineMatchesLegacy(ParseInstance("p(X) :- go, e(X).", "e(a)."));
}

TEST(GroundCsrTest, WorkloadFamilies) {
  {
    Program program = WinMoveProgram();
    Rng rng(7);
    Database database =
        *RandomDigraphDatabase(&program, "move", 48, 96, &rng);
    ExpectEngineMatchesLegacy(Instance{std::move(program),
                                       std::move(database)});
  }
  {
    Program program = SameGenerationProgram();
    Database database = *BalancedTreeDatabase(&program, 3);
    ExpectEngineMatchesLegacy(Instance{std::move(program),
                                       std::move(database)});
  }
  {
    Program program = StratifiedTowerProgram(4);
    Database database = *UnarySetDatabase(&program, "e", 5);
    ExpectEngineMatchesLegacy(Instance{std::move(program),
                                       std::move(database)});
  }
}

TEST(GroundCsrTest, RandomPropositionalPrograms) {
  // fuzz_test-style random propositional programs with EDB mixes.
  Rng rng(0xC5A9);
  for (int round = 0; round < 30; ++round) {
    const int num_props = 2 + static_cast<int>(rng.Below(5));
    const int num_rules = 1 + static_cast<int>(rng.Below(7));
    std::string text;
    for (int r = 0; r < num_rules; ++r) {
      text += "p" + std::to_string(rng.Below(num_props)) + " :- ";
      const int body = 1 + static_cast<int>(rng.Below(3));
      for (int b = 0; b < body; ++b) {
        if (b > 0) text += ", ";
        if (rng.Chance(0.4)) text += "not ";
        text += rng.Chance(0.3) ? "e" + std::to_string(rng.Below(3))
                                : "p" + std::to_string(rng.Below(num_props));
      }
      text += ".\n";
    }
    text += "sinkhole :- e0, e1, e2.\n";
    std::string db;
    for (int e = 0; e < 3; ++e) {
      if (rng.Chance(0.5)) db += "e" + std::to_string(e) + ". ";
    }
    ExpectEngineMatchesLegacy(ParseInstance(text, db));
  }
}

TEST(GroundCsrTest, RandomUnaryAndBinaryPrograms) {
  // property_test-style random programs with real joins (arity 1 and 2).
  Rng rng(0xB17D);
  for (int round = 0; round < 24; ++round) {
    RandomProgramOptions options;
    options.arity = 1 + static_cast<int>(rng.Below(2));
    options.num_idb = 3;
    options.num_edb = 2;
    options.num_rules = 3 + static_cast<int>(rng.Below(5));
    options.negation_probability = 0.35;
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(
        &program, options.arity == 1 ? 4 : 3, 0.4, &rng);
    ExpectEngineMatchesLegacy(Instance{std::move(program),
                                       std::move(database)});
  }
}

}  // namespace
}  // namespace tiebreak
