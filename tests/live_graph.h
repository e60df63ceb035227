// Test-only reference: materializes the *live* part of a CloseState's
// ground graph as a SignedDigraph, so the generic SCC / tie machinery
// (graph/) can run on it. Nodes are the still-undefined atoms plus the
// still-alive rule nodes; edges follow the paper's ground-graph definition
// restricted to live endpoints, inserted rule by rule with the positive
// body before the negative body. interpreter_parallel_test.cc derives the
// reference tie list from it; the production tie pass
// (core/tie_breaking.h, FindBottomTies) never builds it.
#ifndef TIEBREAK_TESTS_LIVE_GRAPH_H_
#define TIEBREAK_TESTS_LIVE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "ground/close.h"

namespace tiebreak {

/// The live subgraph with node <-> atom/rule mappings.
struct LiveGraph {
  SignedDigraph graph;
  /// node -> AtomId, or -1 for rule nodes.
  std::vector<int32_t> node_atom;
  /// node -> rule-instance id, or -1 for atom nodes.
  std::vector<int32_t> node_rule;
  /// AtomId -> node id, or -1 when the atom is not live.
  std::vector<int32_t> atom_node;

  int32_t num_atom_nodes = 0;
};

/// Builds the live subgraph of `state`'s ground graph: live atoms first
/// (ascending id), then live rules (ascending id). The returned graph is
/// finalized.
inline LiveGraph BuildLiveGraph(const CloseState& state) {
  const GroundGraph& ground = state.graph();
  LiveGraph live;
  live.atom_node.assign(ground.num_atoms(), -1);

  for (AtomId a = 0; a < ground.num_atoms(); ++a) {
    if (!state.AtomLive(a)) continue;
    live.atom_node[a] = static_cast<int32_t>(live.node_atom.size());
    live.node_atom.push_back(a);
    live.node_rule.push_back(-1);
  }
  live.num_atom_nodes = static_cast<int32_t>(live.node_atom.size());

  std::vector<int32_t> rule_node(ground.num_rules(), -1);
  for (int32_t r = 0; r < ground.num_rules(); ++r) {
    if (!state.RuleLive(r)) continue;
    rule_node[r] = static_cast<int32_t>(live.node_atom.size());
    live.node_atom.push_back(-1);
    live.node_rule.push_back(r);
  }

  live.graph = SignedDigraph(static_cast<int32_t>(live.node_atom.size()));
  for (int32_t r = 0; r < ground.num_rules(); ++r) {
    if (rule_node[r] < 0) continue;
    // A live rule's body atoms are either live or deleted-satisfied; only
    // live ones still carry edges.
    for (AtomId a : ground.PositiveBody(r)) {
      if (live.atom_node[a] >= 0) {
        live.graph.AddEdge(live.atom_node[a], rule_node[r], false);
      }
    }
    for (AtomId a : ground.NegativeBody(r)) {
      if (live.atom_node[a] >= 0) {
        live.graph.AddEdge(live.atom_node[a], rule_node[r], true);
      }
    }
    // Head edge; the head may itself already be true (deleted), in which
    // case the rule node is a sink.
    const AtomId head = ground.HeadOf(r);
    if (live.atom_node[head] >= 0) {
      live.graph.AddEdge(rule_node[r], live.atom_node[head], false);
    }
  }
  live.graph.Finalize();
  return live;
}

}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_LIVE_GRAPH_H_
