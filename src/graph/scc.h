// Strongly connected components (iterative Tarjan) and condensation
// statistics. The structural analyses use SCCs of the program graph;
// ground/ground_scc.h runs the same traversal over a full ground graph
// (the perfect-model test reference in tests/reference_interpreters.h
// reads it).
//
// The Tarjan core is a template over an adjacency adapter so the same
// traversal runs over a materialized SignedDigraph (ComputeScc) or directly
// over GroundGraph CSR spans with no digraph copy (ground/ground_scc.h).
// Both adapters enumerate neighbors in the same deterministic order, so
// component ids and member order are identical across representations
// (asserted by interpreter_parallel_test.cc).
#ifndef TIEBREAK_GRAPH_SCC_H_
#define TIEBREAK_GRAPH_SCC_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace tiebreak {

/// Output of ComputeScc, in CSR form. Component ids are assigned in
/// *reverse topological* order of the condensation: if some edge goes from
/// component A to component B (A != B), then B's id is smaller than A's id.
struct SccResult {
  int32_t num_components = 0;
  /// node id -> component id.
  std::vector<int32_t> component;
  /// Member node ids of every component, grouped by component id; each
  /// group is in Tarjan-stack pop order (front is the last-discovered
  /// member, back is the component's DFS root).
  std::vector<int32_t> members;
  /// num_components + 1 offsets: component c owns
  /// members[member_offset[c], member_offset[c + 1]).
  std::vector<int32_t> member_offset{0};

  /// The members of component `comp`.
  std::span<const int32_t> Members(int32_t comp) const {
    return {members.data() + member_offset[comp],
            members.data() + member_offset[comp + 1]};
  }
};

/// Iterative Tarjan over any adjacency adapter. The adapter supplies:
///   int32_t num_nodes() const;
///   Cursor FirstEdge(int32_t node) const;     // per-node iteration state
///   int32_t NextNeighbor(int32_t node, Cursor& c) const;
///     // next out-neighbor, or -1 when exhausted
/// Neighbor enumeration order determines DFS order and therefore member
/// order; adapters that must agree (digraph vs CSR) enumerate identically.
template <typename Adjacency>
SccResult ComputeSccOver(const Adjacency& adj) {
  const int32_t n = adj.num_nodes();
  SccResult result;
  result.component.assign(n, -1);
  result.members.reserve(n);

  // A visited node is on the Tarjan stack until its component is assigned.
  constexpr int32_t kUnvisited = -1;
  std::vector<int32_t> index(n, kUnvisited);
  std::vector<int32_t> lowlink(n, 0);
  std::vector<int32_t> tarjan_stack;
  struct Frame {
    int32_t node;
    typename Adjacency::Cursor cursor;
  };
  std::vector<Frame> call_stack;
  int32_t next_index = 0;

  for (int32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back(Frame{root, adj.FirstEdge(root)});
    index[root] = lowlink[root] = next_index++;
    tarjan_stack.push_back(root);

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const int32_t v = frame.node;
      const int32_t w = adj.NextNeighbor(v, frame.cursor);
      if (w >= 0) {
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          tarjan_stack.push_back(w);
          call_stack.push_back(Frame{w, adj.FirstEdge(w)});
        } else if (result.component[w] < 0) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const int32_t parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          // v roots a component; pop it off the Tarjan stack.
          const int32_t comp = result.num_components++;
          while (true) {
            const int32_t u = tarjan_stack.back();
            tarjan_stack.pop_back();
            result.component[u] = comp;
            result.members.push_back(u);
            if (u == v) break;
          }
          result.member_offset.push_back(
              static_cast<int32_t>(result.members.size()));
        }
      }
    }
  }
  return result;
}

/// Computes strongly connected components of a finalized graph.
SccResult ComputeScc(const SignedDigraph& graph);

/// Per-component condensation facts needed by the interpreters.
struct Condensation {
  /// Number of edges entering the component from *other* components.
  std::vector<int32_t> external_in_degree;
  /// Whether the component contains at least one internal edge (size > 1
  /// components always do; singletons only via self-loops).
  std::vector<char> has_internal_edge;
};

/// Computes condensation facts for `scc` over `graph`.
Condensation CondenseScc(const SignedDigraph& graph, const SccResult& scc);

}  // namespace tiebreak

#endif  // TIEBREAK_GRAPH_SCC_H_
