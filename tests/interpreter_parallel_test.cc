// Differential harness for the interpreters' thread counts and for the
// CSR-direct SCC and tie passes. Every interpreter must produce the same
// three-valued model at 1, 2 and 8 threads (perfect model and alternating
// fixpoint run wave- or rule-block-parallel; WellFounded and TieBreaking
// always close serially, so their rows guard that the thread count never
// changes a model), over curated programs, workload families and
// randomized programs. Also locks down the structural contracts the tie
// pass rests on: the CSR Tarjan reproduces the materialized-digraph Tarjan
// exactly (component ids, member order, DFS-tree parities), the tie pass
// reproduces the materialized reference tie-for-tie at every state a run
// passes through, the wave schedule is a valid topological leveling with
// every node in exactly one component, and truncated runs only move atoms
// to kUndef relative to the full model.
#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/alternating.h"
#include "core/completion.h"
#include "core/perfect_model.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "graph/tie.h"
#include "ground/close.h"
#include "ground/ground_scc.h"
#include "ground/live_graph.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/execution_context.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

// Three atoms on one odd negative cycle: never a tie (Lemma 1).
constexpr char kOddNegativeCycle[] = "p :- not q.\nq :- not r.\nr :- not p.";

// The curated instance list shared with ground_csr_test: negation cycles,
// forced-false heads, positive recursion, stratified programs, residual
// free variables, zero-arity generators.
std::vector<Instance> CuratedInstances() {
  std::vector<Instance> instances;
  instances.push_back(ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, a). move(c, d)."));
  instances.push_back(ParseInstance("P(a) :- not P(X), E(b).", "E(b)."));
  instances.push_back(ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).",
      "e(a, b). e(b, c)."));
  instances.push_back(ParseInstance(
      "p(X) :- e(X), not blocked(X).\nq(X) :- p(X), e(X).",
      "e(a). e(b). blocked(a)."));
  instances.push_back(
      ParseInstance("p :- not q.\nq :- not p.\nr :- p, q.", ""));
  instances.push_back(
      ParseInstance("P(X, Y) :- not P(Y, Y), E(X).", "E(a). E(b)."));
  instances.push_back(ParseInstance("p(X) :- go, e(X).", "go. e(a). e(b)."));
  instances.push_back(ParseInstance(
      "odd(X) :- succ(Y, X), even(Y).\neven(X) :- succ(Y, X), odd(Y).\n"
      "even(z) :- zero(z).",
      "zero(z). succ(z, a). succ(a, b). succ(b, c)."));
  instances.push_back(ParseInstance(kOddNegativeCycle, ""));
  // A tie whose last-discovered member (members.front()) sits on the
  // opposite parity side from the DFS root (members.back()): sides must be
  // labeled relative to the front to keep the reference orientation.
  instances.push_back(ParseInstance(
      "a :- x.\nx :- a, not b.\nb :- not x.\nx :- a.", ""));
  return instances;
}

std::vector<Instance> WorkloadInstances() {
  std::vector<Instance> instances;
  {
    Program program = WinMoveProgram();
    Rng rng(31);
    Database database =
        *RandomDigraphDatabase(&program, "move", 256, 768, &rng);
    instances.push_back(Instance{std::move(program), std::move(database)});
  }
  {
    Program program = SameGenerationProgram();
    Database database = *BalancedTreeDatabase(&program, 3);
    instances.push_back(Instance{std::move(program), std::move(database)});
  }
  {
    Program program = StratifiedTowerProgram(4);
    Database database = *UnarySetDatabase(&program, "e", 5);
    instances.push_back(Instance{std::move(program), std::move(database)});
  }
  {
    // One big negation SCC: a single tie spanning the whole even ring.
    Program program = NegationRingProgram(64);
    Database database = *ParseDatabase("", &program);
    instances.push_back(Instance{std::move(program), std::move(database)});
  }
  return instances;
}

// The full graph as a SignedDigraph (mirrors the historical FullGraph of
// core/perfect_model.cc), the reference for the CSR-Tarjan equivalence.
SignedDigraph MaterializeFullGraph(const GroundGraph& graph) {
  SignedDigraph g(graph.num_atoms() + graph.num_rules());
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_node = graph.num_atoms() + r;
    for (AtomId a : graph.PositiveBody(r)) g.AddEdge(a, rule_node, false);
    for (AtomId a : graph.NegativeBody(r)) g.AddEdge(a, rule_node, true);
    g.AddEdge(rule_node, graph.HeadOf(r), false);
  }
  g.Finalize();
  return g;
}

// The historical FindBottomTies: materialize the live graph, generic SCC +
// CheckTie. Kept here verbatim as the reference implementation the CSR
// route must reproduce tie-for-tie, side-for-side.
std::vector<TieView> ReferenceBottomTies(const CloseState& state) {
  std::vector<TieView> ties;
  const LiveGraph live = BuildLiveGraph(state);
  if (live.graph.num_nodes() == 0) return ties;
  const SccResult scc = ComputeScc(live.graph);
  const Condensation cond = CondenseScc(live.graph, scc);
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    if (cond.external_in_degree[comp] != 0) continue;
    if (!cond.has_internal_edge[comp]) continue;
    const std::span<const int32_t> members = scc.Members(comp);
    const TieCheckResult check =
        CheckTie(live.graph, members, scc.component, comp);
    if (!check.is_tie) continue;
    TieView tie;
    for (size_t i = 0; i < members.size(); ++i) {
      const int32_t node = members[i];
      const AtomId atom = live.node_atom[node];
      if (atom < 0) continue;
      (check.side[i] == 0 ? tie.side0 : tie.side1).push_back(atom);
    }
    ties.push_back(std::move(tie));
  }
  return ties;
}

// Wave-schedule invariants over the full graph: `order` is a permutation
// of the components, every live node sits in exactly one member list (the
// one its component id names), and every cross-component edge goes to a
// strictly later wave.
void ExpectValidSchedule(const GroundGraph& graph) {
  const SccSchedule schedule = BuildSccSchedule(graph);
  const SccResult& scc = schedule.scc;
  const int32_t num_nodes = graph.num_atoms() + graph.num_rules();

  std::vector<int32_t> seen(num_nodes, 0);
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    for (int32_t node : scc.Members(comp)) {
      ASSERT_GE(node, 0);
      ASSERT_LT(node, num_nodes);
      EXPECT_EQ(scc.component[node], comp);
      ++seen[node];
    }
  }
  for (int32_t node = 0; node < num_nodes; ++node) {
    EXPECT_EQ(seen[node], 1) << "node " << node
                             << " not in exactly one component";
  }

  ASSERT_EQ(static_cast<int32_t>(schedule.order.size()),
            scc.num_components);
  std::vector<char> in_order(scc.num_components, 0);
  for (int32_t w = 0; w < schedule.num_waves(); ++w) {
    for (int32_t i = schedule.wave_offset[w]; i < schedule.wave_offset[w + 1];
         ++i) {
      const int32_t comp = schedule.order[i];
      EXPECT_EQ(schedule.wave[comp], w);
      EXPECT_EQ(in_order[comp], 0);
      in_order[comp] = 1;
    }
  }
  EXPECT_EQ(std::count(in_order.begin(), in_order.end(), 0), 0);

  auto expect_edge = [&](int32_t from, int32_t to) {
    const int32_t fc = scc.component[from];
    const int32_t tc = scc.component[to];
    if (fc == tc) return;
    EXPECT_LT(tc, fc) << "Tarjan ids must be reverse-topological";
    EXPECT_LT(schedule.wave[fc], schedule.wave[tc])
        << "cross edge must go to a strictly later wave";
  };
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const int32_t rule_node = graph.num_atoms() + r;
    for (AtomId a : graph.PositiveBody(r)) expect_edge(a, rule_node);
    for (AtomId a : graph.NegativeBody(r)) expect_edge(a, rule_node);
    expect_edge(rule_node, graph.HeadOf(r));
  }
}

// Enumerates fixpoints (completion models) in solver order, capped.
std::vector<std::vector<Truth>> EnumerateFixpoints(FixpointSearch* search,
                                                   int limit) {
  std::vector<std::vector<Truth>> models;
  while (static_cast<int>(models.size()) < limit) {
    std::optional<std::vector<Truth>> model = search->Next();
    if (!model.has_value()) break;
    models.push_back(std::move(*model));
  }
  return models;
}

// The agreement matrix: all six interpreters, {2, 8} threads against the
// serial reference, exact three-valued equality (same graph, so directly
// by AtomId).
void ExpectInterpretersAgreeAcrossThreads(const Instance& inst) {
  const GroundingResult ground = GroundOrDie(inst);
  const GroundGraph& graph = ground.graph;

  // Serial references.
  const InterpreterResult serial_wf =
      WellFounded(inst.program, inst.database, graph);
  const InterpreterResult serial_alt =
      AlternatingFixpointWellFounded(inst.program, inst.database, graph);
  const InterpreterResult serial_wftb =
      TieBreaking(inst.program, inst.database, graph,
                  TieBreakingMode::kWellFounded);
  const InterpreterResult serial_pure = TieBreaking(
      inst.program, inst.database, graph, TieBreakingMode::kPure);
  const Result<InterpreterResult> serial_pm =
      PerfectModelGoverned(inst.program, inst.database, graph, nullptr);
  FixpointSearch serial_search(inst.program, inst.database, graph);
  const std::vector<std::vector<Truth>> serial_models =
      EnumerateFixpoints(&serial_search, 64);

  // The options structs at num_threads = 1 must hit the serial paths.
  EXPECT_EQ(WellFounded(inst.program, inst.database, graph,
                        InterpreterOptions{1, nullptr})
                .values,
            serial_wf.values);

  for (const int32_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    InterpreterOptions options;
    options.num_threads = threads;

    const InterpreterResult wf =
        WellFounded(inst.program, inst.database, graph, options);
    EXPECT_EQ(wf.values, serial_wf.values);
    EXPECT_EQ(wf.total, serial_wf.total);

    const InterpreterResult alt = AlternatingFixpointWellFounded(
        inst.program, inst.database, graph, options);
    EXPECT_EQ(alt.values, serial_alt.values);
    EXPECT_EQ(alt.total, serial_alt.total);

    const InterpreterResult wftb =
        TieBreaking(inst.program, inst.database, graph,
                    TieBreakingMode::kWellFounded, options);
    EXPECT_EQ(wftb.values, serial_wftb.values);
    EXPECT_EQ(wftb.total, serial_wftb.total);
    EXPECT_EQ(wftb.ties_broken, serial_wftb.ties_broken);

    const InterpreterResult pure = TieBreaking(
        inst.program, inst.database, graph, TieBreakingMode::kPure, options);
    EXPECT_EQ(pure.values, serial_pure.values);
    EXPECT_EQ(pure.total, serial_pure.total);

    const Result<InterpreterResult> pm = PerfectModelGoverned(
        inst.program, inst.database, graph, options);
    ASSERT_EQ(pm.ok(), serial_pm.ok());
    if (pm.ok()) {
      EXPECT_EQ(pm.value().values, serial_pm.value().values);
      EXPECT_EQ(pm.value().total, serial_pm.value().total);
    }

    // completion: the parallel encoding replays an identical clause
    // database, so even the enumeration *order* matches.
    FixpointSearch search(inst.program, inst.database, graph, options);
    EXPECT_EQ(EnumerateFixpoints(&search, 64), serial_models);
  }
}

void ExpectSameTies(const std::vector<TieView>& csr,
                    const std::vector<TieView>& reference) {
  ASSERT_EQ(csr.size(), reference.size());
  for (size_t i = 0; i < csr.size(); ++i) {
    EXPECT_EQ(csr[i].side0, reference[i].side0) << "tie " << i;
    EXPECT_EQ(csr[i].side1, reference[i].side1) << "tie " << i;
  }
}

// Replays a tie-breaking run step by step from its certificate, starting at
// M0(Δ), and compares the CSR tie pass with the materialized reference at
// every state the run passes through — a superset of the states at which
// the interpreter itself looks for ties.
void ExpectTiePassMatchesAlongRun(const Instance& inst,
                                  const GroundGraph& graph,
                                  TieBreakingMode mode, ChoicePolicy* policy) {
  Certificate certificate;
  TieBreaking(inst.program, inst.database, graph, mode, policy, &certificate);
  CloseState state(inst.program, inst.database, graph);
  for (size_t step = 0;; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    ExpectSameTies(FindBottomTies(state), ReferenceBottomTies(state));
    if (step == certificate.steps.size()) break;
    std::vector<std::pair<AtomId, bool>> assignments;
    for (AtomId a : certificate.steps[step].made_true) {
      assignments.emplace_back(a, true);
    }
    for (AtomId a : certificate.steps[step].made_false) {
      assignments.emplace_back(a, false);
    }
    state.SetAndClose(assignments);
  }
}

// CSR-direct SCC and tie passes against the materialized-graph reference.
void ExpectCsrPassesMatchReference(const Instance& inst) {
  const GroundingResult ground = GroundOrDie(inst);
  const GroundGraph& graph = ground.graph;

  // Full graph: exact Tarjan equivalence — ids, member order and the DFS
  // tree's sign parities.
  const SccResult csr = ComputeGroundScc(graph);
  const SignedDigraph full = MaterializeFullGraph(graph);
  const SccResult reference = ComputeScc(full);
  EXPECT_EQ(csr.num_components, reference.num_components);
  EXPECT_EQ(csr.component, reference.component);
  EXPECT_EQ(csr.member_offset, reference.member_offset);
  EXPECT_EQ(csr.members, reference.members);
  EXPECT_EQ(csr.parity, reference.parity);

  // Live subgraph: the tie pass drives default-policy choices, so the CSR
  // route must reproduce the reference tie list exactly — same ties, same
  // order, same Lemma-1 side orientation — at the initial close and at
  // every later state of WFTB and pure-TB runs, under the default policy
  // and a seeded random one.
  for (const TieBreakingMode mode :
       {TieBreakingMode::kWellFounded, TieBreakingMode::kPure}) {
    SCOPED_TRACE(mode == TieBreakingMode::kPure ? "pure" : "wftb");
    ExpectTiePassMatchesAlongRun(inst, graph, mode, nullptr);
    RandomChoicePolicy random(0x71E5);
    ExpectTiePassMatchesAlongRun(inst, graph, mode, &random);
  }

  ExpectValidSchedule(graph);
}

TEST(InterpreterParallelTest, AgreementCurated) {
  for (Instance& inst : CuratedInstances()) {
    ExpectInterpretersAgreeAcrossThreads(inst);
  }
}

TEST(InterpreterParallelTest, AgreementWorkloads) {
  for (Instance& inst : WorkloadInstances()) {
    ExpectInterpretersAgreeAcrossThreads(inst);
  }
}

TEST(InterpreterParallelTest, AgreementRandomPrograms) {
  Rng rng(0x5CC5);
  for (int round = 0; round < 10; ++round) {
    RandomProgramOptions options;
    options.arity = 1 + static_cast<int>(rng.Below(2));
    options.num_idb = 3;
    options.num_edb = 2;
    options.num_rules = 3 + static_cast<int>(rng.Below(5));
    options.negation_probability = 0.35;
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(
        &program, options.arity == 1 ? 4 : 3, 0.4, &rng);
    ExpectInterpretersAgreeAcrossThreads(
        Instance{std::move(program), std::move(database)});
  }
}

TEST(InterpreterParallelTest, CsrPassesMatchReferenceCurated) {
  for (Instance& inst : CuratedInstances()) {
    ExpectCsrPassesMatchReference(inst);
  }
}

TEST(InterpreterParallelTest, CsrPassesMatchReferenceWorkloads) {
  for (Instance& inst : WorkloadInstances()) {
    ExpectCsrPassesMatchReference(inst);
  }
}

TEST(InterpreterParallelTest, CsrPassesMatchReferenceRandom) {
  Rng rng(0xD1FF);
  for (int round = 0; round < 12; ++round) {
    RandomProgramOptions options;
    options.arity = 1 + static_cast<int>(rng.Below(2));
    options.num_idb = 4;
    options.num_edb = 2;
    options.num_rules = 4 + static_cast<int>(rng.Below(6));
    options.negation_probability = 0.45;
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(
        &program, options.arity == 1 ? 4 : 3, 0.4, &rng);
    ExpectCsrPassesMatchReference(
        Instance{std::move(program), std::move(database)});
  }
}

TEST(InterpreterParallelTest, OddNegativeCycleIsNoTie) {
  // p, q, r and their rules form one bottom component. Its DFS tree
  // labels every member consistently, so the contradiction sits on the
  // one non-tree edge back to the root, and the verification sweep must
  // reject the component.
  const Instance inst = ParseInstance(kOddNegativeCycle, "");
  const GroundingResult ground = GroundOrDie(inst);
  CloseState state(inst.program, inst.database, ground.graph);
  ASSERT_EQ(state.num_live_atoms(), 3);
  const GroundLiveness live{state.values().data(), state.rule_dead().data()};
  const SccResult scc = ComputeGroundScc(ground.graph, live);
  ASSERT_EQ(scc.num_components, 1);
  EXPECT_FALSE(CheckGroundTie(ground.graph, scc, 0));
  EXPECT_TRUE(FindBottomTies(state).empty());
  EXPECT_TRUE(ReferenceBottomTies(state).empty());
}

// Truncation soundness at 8 threads: under any step budget, a truncated
// run decides only atoms the full model decides, with the same values —
// undecided atoms are merely kUndef, never flipped.
TEST(InterpreterParallelTest, TruncatedParallelRunsOnlyUndecide) {
  Program program = WinMoveProgram();
  Rng rng(17);
  Database database =
      *RandomDigraphDatabase(&program, "move", 192, 576, &rng);
  const Instance inst{std::move(program), std::move(database)};
  const GroundingResult ground = GroundOrDie(inst);
  const InterpreterResult full_wf =
      WellFounded(inst.program, inst.database, ground.graph);
  const InterpreterResult full_wftb =
      TieBreaking(inst.program, inst.database, ground.graph,
                  TieBreakingMode::kWellFounded);

  for (const int64_t budget : {1, 3, 10, 30, 100, 300, 1000, 3000}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    {
      ResourceLimits limits;
      limits.max_steps = budget;
      ExecutionContext context(limits);
      const InterpreterResult wf =
          WellFounded(inst.program, inst.database, ground.graph,
                      InterpreterOptions{8, &context});
      if (context.stopped()) {
        EXPECT_EQ(wf.truncation.code(), StatusCode::kResourceExhausted);
        EXPECT_FALSE(wf.total);
      } else {
        EXPECT_EQ(wf.values, full_wf.values);
      }
      for (AtomId a = 0; a < ground.graph.num_atoms(); ++a) {
        if (wf.values[a] != Truth::kUndef) {
          EXPECT_EQ(wf.values[a], full_wf.values[a]) << "atom " << a;
        }
      }
    }
    {
      ResourceLimits limits;
      limits.max_steps = budget;
      ExecutionContext context(limits);
      const InterpreterResult wftb = TieBreaking(
          inst.program, inst.database, ground.graph,
          TieBreakingMode::kWellFounded, InterpreterOptions{8, &context});
      // Same deterministic default policy as the full run, and no ties are
      // broken after the trip, so the truncated run is a prefix: every
      // decided atom agrees.
      for (AtomId a = 0; a < ground.graph.num_atoms(); ++a) {
        if (wftb.values[a] != Truth::kUndef) {
          EXPECT_EQ(wftb.values[a], full_wftb.values[a]) << "atom " << a;
        }
      }
      if (!context.stopped()) {
        EXPECT_EQ(wftb.values, full_wftb.values);
      }
    }
  }
}

}  // namespace
}  // namespace tiebreak
