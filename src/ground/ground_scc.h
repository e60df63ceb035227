// SCCs and topological wave scheduling of the full ground graph G(Π, Δ),
// directly over GroundGraph CSR spans with no SignedDigraph copy. No
// interpreter in the library reads them: the tie-breaking interpreters'
// bottom-tie search runs over the live atoms only (core/tie_breaking.h,
// FindBottomTies), and the perfect model and local-stratification test
// that read ComputeGroundScc are test references
// (tests/reference_interpreters.h). The wave schedule measures the
// condensation's depth and width for perfbench's `ground.scc_schedule`
// span.
//
// Node space: atoms occupy ids [0, num_atoms), rule instance r is node
// num_atoms + r. Edges follow the paper's ground graph: positive body atom
// -> rule (positive), negated body atom -> rule (negative), rule -> head
// (positive).
//
// Equivalence contract: ComputeGroundScc reproduces ComputeScc over the
// materialized full graph *exactly* — same component ids, same member
// order — because an atom's neighbors are enumerated by merging its
// positive and negative consumer spans in ascending rule order with
// positive first on ties, which is precisely the edge insertion order of
// a digraph built rule by rule, positive body before negative body (both
// consumer spans are ascending by GroundGraph::Finalize construction).
// interpreter_parallel_test.cc asserts the equivalence on randomized
// programs.
#ifndef TIEBREAK_GROUND_GROUND_SCC_H_
#define TIEBREAK_GROUND_GROUND_SCC_H_

#include <cstdint>
#include <vector>

#include "graph/scc.h"
#include "ground/ground_graph.h"

namespace tiebreak {

/// Adjacency adapter feeding ComputeSccOver from the CSR spans; exposed so
/// the schedule builder reuses the same neighbor enumeration.
struct GroundAdjacency {
  const GroundGraph* graph;

  /// Merge positions into the positive/negative consumer spans of an atom
  /// (rule nodes use neither; their single head edge is tracked by `pos`).
  struct Cursor {
    size_t pos = 0;
    size_t neg = 0;
  };

  /// Atoms plus rule nodes.
  int32_t num_nodes() const {
    return graph->num_atoms() + graph->num_rules();
  }
  /// A fresh cursor at the node's first out-edge.
  Cursor FirstEdge(int32_t) const { return Cursor{}; }
  /// The next out-neighbor of `node`, or -1 when its edges are exhausted.
  int32_t NextNeighbor(int32_t node, Cursor& cursor) const {
    const int32_t num_atoms = graph->num_atoms();
    if (node < num_atoms) {
      // Merged consumer walk: ascending rule id, positive before negative
      // on ties (see file comment).
      const IdSpan pos = graph->PositiveConsumers(node);
      const IdSpan neg = graph->NegativeConsumers(node);
      if (cursor.neg >= neg.size() ||
          (cursor.pos < pos.size() && pos[cursor.pos] <= neg[cursor.neg])) {
        if (cursor.pos >= pos.size()) return -1;
        return num_atoms + pos[cursor.pos++];
      }
      return num_atoms + neg[cursor.neg++];
    }
    // Rule node: one head edge.
    if (cursor.pos != 0) return -1;
    cursor.pos = 1;
    return graph->HeadOf(node - num_atoms);
  }
};

/// Tarjan directly over the CSR spans of the full graph. See the file
/// comment for the equivalence guarantee against ComputeScc over the
/// materialized graph.
SccResult ComputeGroundScc(const GroundGraph& graph);

/// Topological wave schedule of the condensation: wave(c) is the longest
/// dependency-path depth of component c, so every component's dependencies
/// sit in strictly earlier waves and all components of one wave are
/// mutually edge-free. Within a wave,
/// `order` lists components in descending id (the serial reference order:
/// Tarjan ids are reverse-topological, and the serial interpreters process
/// them descending).
struct SccSchedule {
  SccResult scc;
  /// component id -> wave index.
  std::vector<int32_t> wave;
  /// Component ids grouped by wave: wave w occupies
  /// order[wave_offset[w], wave_offset[w + 1]).
  std::vector<int32_t> order;
  /// num_waves() + 1 offsets into `order`.
  std::vector<int32_t> wave_offset;

  /// Number of waves (0 for an empty graph).
  int32_t num_waves() const {
    return static_cast<int32_t>(wave_offset.size()) - 1;
  }
};

/// Condenses the full ground graph and levels the condensation into
/// waves. One SCC pass plus one descending-id relaxation sweep.
SccSchedule BuildSccSchedule(const GroundGraph& graph);

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_GROUND_SCC_H_
