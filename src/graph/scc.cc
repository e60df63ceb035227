#include "graph/scc.h"

namespace tiebreak {

namespace {

// Adjacency adapter over a finalized SignedDigraph: neighbors in OutEdges
// order (= edge insertion order; Finalize's counting scatter is stable).
struct DigraphAdjacency {
  const SignedDigraph* graph;

  using Cursor = size_t;  // index into OutEdges(node)

  int32_t num_nodes() const { return graph->num_nodes(); }
  bool Alive(int32_t) const { return true; }
  Cursor FirstEdge(int32_t) const { return 0; }
  int32_t NextNeighbor(int32_t node, Cursor& cursor, bool* negative) const {
    const auto out = graph->OutEdges(node);
    if (cursor >= out.size()) return -1;
    const SignedEdge& edge = graph->edge(out[cursor++]);
    *negative = edge.negative;
    return edge.to;
  }
};

}  // namespace

SccResult ComputeScc(const SignedDigraph& graph) {
  TIEBREAK_CHECK(graph.finalized());
  return ComputeSccOver(DigraphAdjacency{&graph});
}

Condensation CondenseScc(const SignedDigraph& graph, const SccResult& scc) {
  Condensation cond;
  cond.external_in_degree.assign(scc.num_components, 0);
  cond.has_internal_edge.assign(scc.num_components, 0);
  for (int32_t e = 0; e < graph.num_edges(); ++e) {
    const SignedEdge& edge = graph.edge(e);
    const int32_t from_comp = scc.component[edge.from];
    const int32_t to_comp = scc.component[edge.to];
    if (from_comp == to_comp) {
      cond.has_internal_edge[to_comp] = 1;
    } else {
      ++cond.external_in_degree[to_comp];
    }
  }
  return cond;
}

}  // namespace tiebreak
