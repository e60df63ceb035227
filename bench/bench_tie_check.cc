// EXP-L1 — Lemma 1: deciding whether a strongly connected signed graph is a
// tie (and computing the partition) is linear time. Benchmarks the full
// pipeline (SCC + parity partition + edge verification) on ring ties,
// random ties (parity-consistent signs) and random graphs; time per edge
// should stay flat as N grows.
#include <benchmark/benchmark.h>

#include "core/completion.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "graph/tie.h"
#include "ground/grounder.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// A ring of n nodes with an even number of negative edges: always a tie.
SignedDigraph RingTie(int n) {
  SignedDigraph g(n);
  for (int i = 0; i < n; ++i) {
    // Two negatives per ring (positions 0 and n/2).
    const bool negative = i == 0 || i == n / 2;
    g.AddEdge(i, (i + 1) % n, negative);
  }
  g.Finalize();
  return g;
}

// A strongly connected graph that is a tie by construction: assign random
// sides, make edge signs match the partition.
SignedDigraph RandomTie(int n, int extra_edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> side(n);
  for (int i = 0; i < n; ++i) side[i] = rng.Chance(0.5) ? 1 : 0;
  SignedDigraph g(n);
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    g.AddEdge(i, j, side[i] != side[j]);
  }
  for (int e = 0; e < extra_edges; ++e) {
    const int u = static_cast<int>(rng.Below(n));
    const int v = static_cast<int>(rng.Below(n));
    g.AddEdge(u, v, side[u] != side[v]);
  }
  g.Finalize();
  return g;
}

SignedDigraph RandomSigned(int n, int m, uint64_t seed) {
  Rng rng(seed);
  SignedDigraph g(n);
  for (int e = 0; e < m; ++e) {
    g.AddEdge(static_cast<int>(rng.Below(n)),
              static_cast<int>(rng.Below(n)), rng.Chance(0.3));
  }
  g.Finalize();
  return g;
}

void BM_TieCheck_RingTie(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SignedDigraph g = RingTie(n);
  for (auto _ : state) {
    const SccResult scc = ComputeScc(g);
    benchmark::DoNotOptimize(
        CheckTie(g, scc.Members(0), scc.component, 0).is_tie);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TieCheck_RingTie)->Range(1 << 8, 1 << 16);

void BM_TieCheck_RandomTie(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SignedDigraph g = RandomTie(n, 3 * n, 42);
  for (auto _ : state) {
    const SccResult scc = ComputeScc(g);
    bool all_ties = true;
    for (int c = 0; c < scc.num_components; ++c) {
      all_ties = all_ties &&
                 CheckTie(g, scc.Members(c), scc.component, c).is_tie;
    }
    benchmark::DoNotOptimize(all_ties);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TieCheck_RandomTie)->Range(1 << 8, 1 << 16);

void BM_HasOddCycle_Random(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SignedDigraph g = RandomSigned(n, 4 * n, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HasOddCycle(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_HasOddCycle_Random)->Range(1 << 8, 1 << 16);

void BM_FindOddCycle_Random(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SignedDigraph g = RandomSigned(n, 4 * n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindOddCycle(g).size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_FindOddCycle_Random)->Range(1 << 8, 1 << 14);

// Companion to the graph-side tie machinery: the SAT-backed fixpoint
// enumeration over random win-move boards, with the CDCL core's
// observability counters surfaced per run so solver behavior (conflicts,
// learning, database reduction, arena footprint) is visible next to the
// tie-check costs it complements.
void BM_FixpointEnum_WinMove(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(0x71E);
  Program program = WinMoveProgram();
  Database board =
      *RandomDigraphDatabase(&program, "move", n, 2 * n, &rng);
  const GroundingResult ground = Ground(program, board).value();
  int64_t conflicts = 0, propagations = 0, learnt = 0, restarts = 0;
  int64_t arena_bytes = 0, models = 0;
  for (auto _ : state) {
    FixpointSearch search(program, board, ground.graph);
    models += search.Count(/*limit=*/200);
    const SatSolver& solver = search.solver();
    conflicts += solver.num_conflicts();
    propagations += solver.num_propagations();
    learnt += solver.num_learnt();
    restarts += solver.num_restarts();
    arena_bytes = static_cast<int64_t>(solver.arena_bytes());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["conflicts"] = static_cast<double>(conflicts) / iters;
  state.counters["props"] = static_cast<double>(propagations) / iters;
  state.counters["learnt"] = static_cast<double>(learnt) / iters;
  state.counters["restarts"] = static_cast<double>(restarts) / iters;
  state.counters["arena_bytes"] = static_cast<double>(arena_bytes);
  state.counters["models"] = static_cast<double>(models) / iters;
}
BENCHMARK(BM_FixpointEnum_WinMove)->Range(8, 64);

}  // namespace
}  // namespace tiebreak

BENCHMARK_MAIN();
