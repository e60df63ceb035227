// Tests for the signed-digraph substrate: CSR adjacency, Tarjan SCC,
// condensation, the Lemma-1 tie test, and odd/negative cycle extraction.
// Randomized suites cross-validate against independent brute-force oracles.
#include <algorithm>
#include <set>
#include <vector>

#include "graph/digraph.h"
#include "graph/scc.h"
#include "graph/tie.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace tiebreak {
namespace {

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

// Brute-force SCC oracle: u ~ v iff u reaches v and v reaches u.
std::vector<std::vector<char>> ReachabilityMatrix(const SignedDigraph& g) {
  const int n = g.num_nodes();
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  for (int e = 0; e < g.num_edges(); ++e) {
    reach[g.edge(e).from][g.edge(e).to] = 1;
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (int j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = 1;
      }
    }
  }
  return reach;
}

// Odd-cycle oracle via the parity-doubled graph: an odd closed walk through v
// exists iff (v, parity 0) reaches (v, parity 1); by the paper's walk
// decomposition argument this is equivalent to the existence of an odd
// simple cycle.
bool OddCycleOracle(const SignedDigraph& g) {
  const int n = g.num_nodes();
  SignedDigraph doubled(2 * n);
  for (int e = 0; e < g.num_edges(); ++e) {
    const SignedEdge& edge = g.edge(e);
    const int flip = edge.negative ? 1 : 0;
    for (int p = 0; p < 2; ++p) {
      doubled.AddEdge(2 * edge.from + p, 2 * edge.to + (p ^ flip), false);
    }
  }
  doubled.Finalize();
  const auto reach = ReachabilityMatrix(doubled);
  for (int v = 0; v < n; ++v) {
    if (reach[2 * v][2 * v + 1]) return true;
  }
  return false;
}

// Negative-cycle oracle: some cycle contains a negative edge iff some
// negative edge has endpoints in the same SCC.
bool NegativeCycleOracle(const SignedDigraph& g) {
  const auto reach = ReachabilityMatrix(g);
  for (int e = 0; e < g.num_edges(); ++e) {
    const SignedEdge& edge = g.edge(e);
    if (edge.negative && (edge.from == edge.to || reach[edge.to][edge.from])) {
      return true;
    }
  }
  return false;
}

SignedDigraph RandomGraph(Rng* rng, int n, int m, double negative_fraction) {
  SignedDigraph g(n);
  for (int i = 0; i < m; ++i) {
    g.AddEdge(static_cast<int>(rng->Below(n)), static_cast<int>(rng->Below(n)),
              rng->Chance(negative_fraction));
  }
  g.Finalize();
  return g;
}

// Validates that `cycle` is a simple cycle of `g` in traversal order and
// returns its negative-edge parity.
int ValidateSimpleCycle(const SignedDigraph& g,
                        const std::vector<int32_t>& cycle) {
  EXPECT_FALSE(cycle.empty());
  std::set<int32_t> seen_nodes;
  int parity = 0;
  for (size_t i = 0; i < cycle.size(); ++i) {
    const SignedEdge& e = g.edge(cycle[i]);
    const SignedEdge& next = g.edge(cycle[(i + 1) % cycle.size()]);
    EXPECT_EQ(e.to, next.from) << "cycle edges not consecutive at " << i;
    EXPECT_TRUE(seen_nodes.insert(e.from).second)
        << "cycle revisits node " << e.from;
    parity ^= e.negative ? 1 : 0;
  }
  return parity;
}

// ---------------------------------------------------------------------------
// SignedDigraph basics.
// ---------------------------------------------------------------------------

TEST(SignedDigraphTest, EmptyGraph) {
  SignedDigraph g;
  g.Finalize();
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(SignedDigraphTest, AdjacencyListsMatchEdges) {
  SignedDigraph g(4);
  const int e0 = g.AddEdge(0, 1, false);
  const int e1 = g.AddEdge(0, 2, true);
  const int e2 = g.AddEdge(2, 0, false);
  const int e3 = g.AddEdge(2, 2, true);  // self-loop
  g.Finalize();

  auto out0 = g.OutEdges(0);
  EXPECT_EQ(std::vector<int32_t>(out0.begin(), out0.end()),
            (std::vector<int32_t>{e0, e1}));
  auto in2 = g.InEdges(2);
  EXPECT_EQ(std::vector<int32_t>(in2.begin(), in2.end()),
            (std::vector<int32_t>{e1, e3}));
  EXPECT_TRUE(g.OutEdges(1).empty());
  EXPECT_TRUE(g.OutEdges(3).empty());
  EXPECT_EQ(g.edge(e2).from, 2);
  EXPECT_EQ(g.CountNegativeEdges(), 2);
}

TEST(SignedDigraphTest, ParallelEdgesWithDifferentSigns) {
  SignedDigraph g(2);
  g.AddEdge(0, 1, false);
  g.AddEdge(0, 1, true);
  g.Finalize();
  EXPECT_EQ(g.OutEdges(0).size(), 2u);
  EXPECT_EQ(g.CountNegativeEdges(), 1);
}

// ---------------------------------------------------------------------------
// SCC.
// ---------------------------------------------------------------------------

TEST(SccTest, SingleCycle) {
  SignedDigraph g(3);
  g.AddEdge(0, 1, false);
  g.AddEdge(1, 2, false);
  g.AddEdge(2, 0, false);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.num_components, 1);
  EXPECT_EQ(scc.Members(0).size(), 3u);
}

TEST(SccTest, ChainHasSingletonComponents) {
  SignedDigraph g(4);
  g.AddEdge(0, 1, false);
  g.AddEdge(1, 2, false);
  g.AddEdge(2, 3, false);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  EXPECT_EQ(scc.num_components, 4);
}

TEST(SccTest, ComponentIdsAreReverseTopological) {
  // 0 -> 1 -> 2 (all singletons): any edge A->B across components must have
  // component(B) < component(A).
  SignedDigraph g(3);
  g.AddEdge(0, 1, false);
  g.AddEdge(1, 2, false);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(scc.component[g.edge(e).to], scc.component[g.edge(e).from]);
  }
}

TEST(SccTest, RandomGraphsMatchReachabilityOracle) {
  Rng rng(7);
  for (int round = 0; round < 60; ++round) {
    const int n = 1 + static_cast<int>(rng.Below(12));
    const int m = static_cast<int>(rng.Below(3 * n + 1));
    const SignedDigraph g = RandomGraph(&rng, n, m, 0.3);
    const SccResult scc = ComputeScc(g);
    const auto reach = ReachabilityMatrix(g);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        const bool same =
            u == v || (reach[u][v] && reach[v][u]);
        EXPECT_EQ(scc.component[u] == scc.component[v], same)
            << "nodes " << u << "," << v << " round " << round;
      }
    }
    // Reverse topological numbering.
    for (int e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      if (scc.component[edge.from] != scc.component[edge.to]) {
        EXPECT_LT(scc.component[edge.to], scc.component[edge.from]);
      }
    }
  }
}

TEST(SccTest, CondensationCountsExternalInDegree) {
  SignedDigraph g(4);
  g.AddEdge(0, 1, false);
  g.AddEdge(1, 0, false);  // comp {0,1}
  g.AddEdge(1, 2, false);
  g.AddEdge(0, 2, true);   // two external edges into {2}
  g.AddEdge(3, 3, false);  // self-loop singleton
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  const Condensation cond = CondenseScc(g, scc);
  const int comp01 = scc.component[0];
  const int comp2 = scc.component[2];
  const int comp3 = scc.component[3];
  EXPECT_EQ(cond.external_in_degree[comp01], 0);
  EXPECT_EQ(cond.external_in_degree[comp2], 2);
  EXPECT_EQ(cond.external_in_degree[comp3], 0);
  EXPECT_TRUE(cond.has_internal_edge[comp01]);
  EXPECT_FALSE(cond.has_internal_edge[comp2]);
  EXPECT_TRUE(cond.has_internal_edge[comp3]);
}

// ---------------------------------------------------------------------------
// Tie check (Lemma 1).
// ---------------------------------------------------------------------------

TEST(TieTest, PositiveCycleIsTie) {
  SignedDigraph g(3);
  g.AddEdge(0, 1, false);
  g.AddEdge(1, 2, false);
  g.AddEdge(2, 0, false);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  const auto check = CheckTie(g, scc.Members(0), scc.component, 0);
  EXPECT_TRUE(check.is_tie);
  // All-positive cycle: everything on one side.
  for (char s : check.side) EXPECT_EQ(s, check.side[0]);
}

TEST(TieTest, TwoNegativeEdgesCycleIsTie) {
  // p <-neg- q <-neg- p : even number of negatives, classic tie.
  SignedDigraph g(2);
  g.AddEdge(0, 1, true);
  g.AddEdge(1, 0, true);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  const auto check = CheckTie(g, scc.Members(0), scc.component, 0);
  ASSERT_TRUE(check.is_tie);
  EXPECT_NE(check.side[0], check.side[1]);  // negative edges cross sides
}

TEST(TieTest, SingleNegativeCycleIsNotTie) {
  SignedDigraph g(2);
  g.AddEdge(0, 1, true);
  g.AddEdge(1, 0, false);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  const auto check = CheckTie(g, scc.Members(0), scc.component, 0);
  EXPECT_FALSE(check.is_tie);
  EXPECT_GE(check.violating_edge, 0);
}

TEST(TieTest, NegativeSelfLoopIsNotTie) {
  SignedDigraph g(1);
  g.AddEdge(0, 0, true);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  EXPECT_FALSE(CheckTie(g, scc.Members(0), scc.component, 0).is_tie);
}

TEST(TieTest, PositiveSelfLoopIsTie) {
  SignedDigraph g(1);
  g.AddEdge(0, 0, false);
  g.Finalize();
  const SccResult scc = ComputeScc(g);
  EXPECT_TRUE(CheckTie(g, scc.Members(0), scc.component, 0).is_tie);
}

TEST(TieTest, PartitionSeparatesSignsOnTies) {
  Rng rng(21);
  int ties_seen = 0;
  for (int round = 0; round < 200; ++round) {
    const int n = 2 + static_cast<int>(rng.Below(8));
    const SignedDigraph g = RandomGraph(&rng, n, 2 * n, 0.25);
    const SccResult scc = ComputeScc(g);
    for (int c = 0; c < scc.num_components; ++c) {
      const auto check = CheckTie(g, scc.Members(c), scc.component, c);
      if (!check.is_tie) continue;
      ++ties_seen;
      // Rebuild node -> side and verify the Lemma 1 conditions.
      std::vector<int> side(n, -1);
      for (size_t i = 0; i < scc.Members(c).size(); ++i) {
        side[scc.Members(c)[i]] = check.side[i];
      }
      for (int e = 0; e < g.num_edges(); ++e) {
        const auto& edge = g.edge(e);
        if (scc.component[edge.from] != c || scc.component[edge.to] != c) {
          continue;
        }
        if (edge.negative) {
          EXPECT_NE(side[edge.from], side[edge.to]);
        } else {
          EXPECT_EQ(side[edge.from], side[edge.to]);
        }
      }
    }
  }
  EXPECT_GT(ties_seen, 20) << "suite should exercise a healthy number of ties";
}

// ---------------------------------------------------------------------------
// Odd cycle detection and extraction.
// ---------------------------------------------------------------------------

TEST(OddCycleTest, MatchesDoubledGraphOracle) {
  Rng rng(99);
  int odd_count = 0;
  for (int round = 0; round < 300; ++round) {
    const int n = 1 + static_cast<int>(rng.Below(9));
    const int m = static_cast<int>(rng.Below(3 * n + 1));
    const SignedDigraph g = RandomGraph(&rng, n, m, 0.35);
    const bool expected = OddCycleOracle(g);
    EXPECT_EQ(HasOddCycle(g), expected) << "round " << round;
    if (expected) ++odd_count;
  }
  EXPECT_GT(odd_count, 40);
}

TEST(OddCycleTest, ExtractedCycleIsSimpleAndOdd) {
  Rng rng(1234);
  int extracted = 0;
  for (int round = 0; round < 300; ++round) {
    const int n = 2 + static_cast<int>(rng.Below(10));
    const SignedDigraph g = RandomGraph(&rng, n, 3 * n, 0.3);
    const auto cycle = FindOddCycle(g);
    if (cycle.empty()) {
      EXPECT_FALSE(OddCycleOracle(g)) << "missed an odd cycle, round "
                                      << round;
      continue;
    }
    ++extracted;
    EXPECT_EQ(ValidateSimpleCycle(g, cycle), 1) << "round " << round;
  }
  EXPECT_GT(extracted, 100);
}

TEST(OddCycleTest, ThreeNegativeTriangle) {
  // The paper's r1/r2/r3 example shape: a 3-cycle with three negatives.
  SignedDigraph g(3);
  g.AddEdge(0, 1, true);
  g.AddEdge(1, 2, true);
  g.AddEdge(2, 0, true);
  g.Finalize();
  const auto cycle = FindOddCycle(g);
  ASSERT_EQ(cycle.size(), 3u);
  EXPECT_EQ(ValidateSimpleCycle(g, cycle), 1);
}

TEST(OddCycleTest, MixedParityParallelEdgesGiveOddCycle) {
  // A 2-cycle where one arc exists in both signs: the pos+pos cycle is even,
  // but swapping in the negative parallel edge makes it odd.
  SignedDigraph g(2);
  g.AddEdge(0, 1, false);
  g.AddEdge(0, 1, true);
  g.AddEdge(1, 0, false);
  g.Finalize();
  EXPECT_TRUE(HasOddCycle(g));
  const auto cycle = FindOddCycle(g);
  EXPECT_EQ(ValidateSimpleCycle(g, cycle), 1);
}

TEST(NegativeCycleTest, MatchesOracle) {
  Rng rng(4242);
  int found = 0;
  for (int round = 0; round < 300; ++round) {
    const int n = 1 + static_cast<int>(rng.Below(9));
    const int m = static_cast<int>(rng.Below(3 * n + 1));
    const SignedDigraph g = RandomGraph(&rng, n, m, 0.3);
    const auto cycle = FindNegativeCycle(g);
    EXPECT_EQ(!cycle.empty(), NegativeCycleOracle(g)) << "round " << round;
    if (cycle.empty()) continue;
    ++found;
    ValidateSimpleCycle(g, cycle);
    int negatives = 0;
    for (int32_t e : cycle) negatives += g.edge(e).negative ? 1 : 0;
    EXPECT_GE(negatives, 1);
  }
  EXPECT_GT(found, 60);
}

TEST(NegativeCycleTest, AllPositiveGraphHasNone) {
  Rng rng(5);
  const SignedDigraph g = RandomGraph(&rng, 10, 40, 0.0);
  EXPECT_TRUE(FindNegativeCycle(g).empty());
  EXPECT_FALSE(HasOddCycle(g));
}

}  // namespace
}  // namespace tiebreak
