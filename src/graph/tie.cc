#include "graph/tie.h"

#include <algorithm>
#include <unordered_map>

namespace tiebreak {

namespace {

// BFS over the internal edges of one SCC, recording the incoming tree edge
// of every member and its sign parity from the root (= members.front()).
struct SccBfsTree {
  std::unordered_map<int32_t, int32_t> local_index;  // node -> members pos
  std::vector<int32_t> parent_edge;  // members pos -> edge id (-1 at root)
  std::vector<char> parity;          // members pos -> # negatives mod 2
};

SccBfsTree BuildSccBfsTree(const SignedDigraph& graph,
                           std::span<const int32_t> members,
                           const std::vector<int32_t>& component_of,
                           int32_t comp_id) {
  SccBfsTree tree;
  tree.local_index.reserve(members.size() * 2);
  for (size_t i = 0; i < members.size(); ++i) {
    tree.local_index.emplace(members[i], static_cast<int32_t>(i));
  }
  tree.parent_edge.assign(members.size(), -1);
  tree.parity.assign(members.size(), 0);
  std::vector<char> visited(members.size(), 0);
  std::vector<int32_t> queue;
  queue.push_back(members.front());
  visited[tree.local_index.at(members.front())] = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int32_t v = queue[head];
    const int32_t v_local = tree.local_index.at(v);
    for (int32_t e : graph.OutEdges(v)) {
      const SignedEdge& edge = graph.edge(e);
      if (component_of[edge.to] != comp_id) continue;
      const int32_t w_local = tree.local_index.at(edge.to);
      if (visited[w_local]) continue;
      visited[w_local] = 1;
      tree.parent_edge[w_local] = e;
      tree.parity[w_local] =
          static_cast<char>(tree.parity[v_local] ^ (edge.negative ? 1 : 0));
      queue.push_back(edge.to);
    }
  }
  // Strong connectivity of the component guarantees full coverage.
  for (char v : visited) TIEBREAK_CHECK(v) << "SCC not strongly connected";
  return tree;
}

// Simple BFS path (edge ids) from src to dst within one SCC; empty when
// src == dst. Strong connectivity guarantees existence.
std::vector<int32_t> BfsPathInScc(const SignedDigraph& graph,
                                  const std::vector<int32_t>& component_of,
                                  int32_t comp_id, int32_t src, int32_t dst) {
  if (src == dst) return {};
  std::unordered_map<int32_t, int32_t> parent_edge;  // node -> incoming edge
  std::vector<int32_t> queue{src};
  parent_edge.emplace(src, -1);
  for (size_t head = 0; head < queue.size(); ++head) {
    const int32_t v = queue[head];
    for (int32_t e : graph.OutEdges(v)) {
      const SignedEdge& edge = graph.edge(e);
      if (component_of[edge.to] != comp_id) continue;
      if (parent_edge.contains(edge.to)) continue;
      parent_edge.emplace(edge.to, e);
      if (edge.to == dst) {
        std::vector<int32_t> path;
        int32_t cursor = dst;
        while (cursor != src) {
          const int32_t pe = parent_edge.at(cursor);
          path.push_back(pe);
          cursor = graph.edge(pe).from;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(edge.to);
    }
  }
  TIEBREAK_CHECK(false) << "no path inside SCC: component not strongly "
                           "connected";
  return {};
}

// Tree path root -> node as edge ids.
std::vector<int32_t> TreePath(const SignedDigraph& graph,
                              const SccBfsTree& tree, int32_t node) {
  std::vector<int32_t> path;
  int32_t local = tree.local_index.at(node);
  while (tree.parent_edge[local] != -1) {
    const int32_t e = tree.parent_edge[local];
    path.push_back(e);
    local = tree.local_index.at(graph.edge(e).from);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

int WalkParity(const SignedDigraph& graph, const std::vector<int32_t>& walk) {
  int parity = 0;
  for (int32_t e : walk) parity ^= graph.edge(e).negative ? 1 : 0;
  return parity;
}

// Decomposes a closed walk (consecutive edge ids, start node == end node)
// into simple cycles and returns one with odd negative-edge parity. The
// caller guarantees the whole walk is odd, so an odd simple cycle exists.
std::vector<int32_t> ExtractOddSimpleCycle(const SignedDigraph& graph,
                                           const std::vector<int32_t>& walk) {
  TIEBREAK_CHECK(!walk.empty());
  struct Entry {
    int32_t node;
    int32_t incoming_edge;  // -1 for the initial node
  };
  std::vector<Entry> stack;
  std::unordered_map<int32_t, int32_t> position;  // node -> stack index
  const int32_t start = graph.edge(walk.front()).from;
  stack.push_back(Entry{start, -1});
  position.emplace(start, 0);

  for (int32_t e : walk) {
    const int32_t w = graph.edge(e).to;
    auto it = position.find(w);
    if (it == position.end()) {
      position.emplace(w, static_cast<int32_t>(stack.size()));
      stack.push_back(Entry{w, e});
      continue;
    }
    // Closing a simple cycle: edges of stack entries above position, plus e.
    const int32_t base = it->second;
    std::vector<int32_t> cycle;
    for (size_t i = base + 1; i < stack.size(); ++i) {
      cycle.push_back(stack[i].incoming_edge);
    }
    cycle.push_back(e);
    if (WalkParity(graph, cycle) == 1) return cycle;
    // Even cycle: discard it and keep walking from w (already at `base`).
    while (static_cast<int32_t>(stack.size()) > base + 1) {
      position.erase(stack.back().node);
      stack.pop_back();
    }
  }
  TIEBREAK_CHECK(false) << "odd closed walk contained no odd simple cycle";
  return {};
}

}  // namespace

TieCheckResult CheckTie(const SignedDigraph& graph,
                        std::span<const int32_t> members,
                        const std::vector<int32_t>& component_of,
                        int32_t comp_id) {
  TIEBREAK_CHECK(graph.finalized());
  TIEBREAK_CHECK(!members.empty());
  const SccBfsTree tree =
      BuildSccBfsTree(graph, members, component_of, comp_id);
  TieCheckResult result;
  result.side.assign(members.size(), 0);
  for (size_t i = 0; i < members.size(); ++i) {
    result.side[i] = tree.parity[tree.local_index.at(members[i])];
  }
  // Verify every internal edge against the parity partition (Lemma 1).
  for (int32_t v : members) {
    const int32_t v_local = tree.local_index.at(v);
    for (int32_t e : graph.OutEdges(v)) {
      const SignedEdge& edge = graph.edge(e);
      if (component_of[edge.to] != comp_id) continue;
      const int32_t w_local = tree.local_index.at(edge.to);
      const char expected = static_cast<char>(tree.parity[v_local] ^
                                              (edge.negative ? 1 : 0));
      if (tree.parity[w_local] != expected) {
        result.is_tie = false;
        result.violating_edge = e;
        return result;
      }
    }
  }
  result.is_tie = true;
  return result;
}

bool HasOddCycle(const SignedDigraph& graph) {
  const SccResult scc = ComputeScc(graph);
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    if (!CheckTie(graph, scc.Members(comp), scc.component, comp).is_tie) {
      return true;
    }
  }
  return false;
}

std::vector<int32_t> FindOddCycle(const SignedDigraph& graph) {
  const SccResult scc = ComputeScc(graph);
  for (int32_t comp = 0; comp < scc.num_components; ++comp) {
    const std::span<const int32_t> members = scc.Members(comp);
    const TieCheckResult check =
        CheckTie(graph, members, scc.component, comp);
    if (check.is_tie) continue;

    // Lemma 1's refutation: the two root->w walks (via the tree, and via the
    // tree to z plus the violating edge) have different parities, so gluing
    // either onto a w->root return path yields one odd closed walk.
    const SccBfsTree tree = BuildSccBfsTree(graph, members, scc.component,
                                            comp);
    const SignedEdge& bad = graph.edge(check.violating_edge);
    std::vector<int32_t> walk_via_edge = TreePath(graph, tree, bad.from);
    walk_via_edge.push_back(check.violating_edge);
    std::vector<int32_t> walk_via_tree = TreePath(graph, tree, bad.to);
    const std::vector<int32_t> back = BfsPathInScc(
        graph, scc.component, comp, bad.to, members.front());
    const int back_parity = WalkParity(graph, back);

    std::vector<int32_t> closed = (WalkParity(graph, walk_via_edge) ^
                                   back_parity) == 1
                                      ? std::move(walk_via_edge)
                                      : std::move(walk_via_tree);
    closed.insert(closed.end(), back.begin(), back.end());
    TIEBREAK_CHECK_EQ(WalkParity(graph, closed), 1);
    return ExtractOddSimpleCycle(graph, closed);
  }
  return {};
}

std::vector<int32_t> FindNegativeCycle(const SignedDigraph& graph) {
  const SccResult scc = ComputeScc(graph);
  for (int32_t e = 0; e < graph.num_edges(); ++e) {
    const SignedEdge& edge = graph.edge(e);
    if (!edge.negative) continue;
    if (scc.component[edge.from] != scc.component[edge.to]) continue;
    // Close the negative edge with a simple path back to its source.
    std::vector<int32_t> cycle{e};
    const std::vector<int32_t> back = BfsPathInScc(
        graph, scc.component, scc.component[edge.from], edge.to, edge.from);
    cycle.insert(cycle.end(), back.begin(), back.end());
    return cycle;
  }
  return {};
}

}  // namespace tiebreak
