// Lemma 1 of the paper: a strongly connected signed graph is a *tie* iff its
// nodes can be 2-partitioned so that positive edges stay inside a part and
// negative edges cross parts; equivalently, iff it contains no cycle with an
// odd number of negative edges ("odd cycle"). This header provides:
//
//  * CheckTie       — linear-time test + partition for one SCC (Lemma 1).
//  * HasOddCycle    — whole-graph test (call-consistency of program graphs).
//  * FindOddCycle   — extracts a *simple* odd cycle as an edge sequence
//                     (fuel for the Theorem 2/3 witness constructions).
//  * FindNegativeCycle — extracts a simple cycle containing at least one
//                     negative edge (fuel for the Theorem 5 construction).
#ifndef TIEBREAK_GRAPH_TIE_H_
#define TIEBREAK_GRAPH_TIE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "graph/scc.h"

namespace tiebreak {

/// Result of the Lemma-1 test on one strongly connected component.
struct TieCheckResult {
  bool is_tie = false;
  /// Parity side per member, aligned with the `members` vector passed in:
  /// side 0 = same parity as members.front(), side 1 = opposite. For a tie,
  /// positive internal edges connect equal sides and negative ones cross.
  std::vector<char> side;
  /// When !is_tie: an internal edge inconsistent with the spanning-tree
  /// parity (witness that an odd cycle passes through it); -1 otherwise.
  int32_t violating_edge = -1;
};

/// Runs the Lemma-1 partition test on the strongly connected component
/// `comp_id` whose members are `members` (SccResult::Members of ComputeScc).
/// Only internal edges (both endpoints in the component) are considered.
TieCheckResult CheckTie(const SignedDigraph& graph,
                        std::span<const int32_t> members,
                        const std::vector<int32_t>& component_of,
                        int32_t comp_id);

/// True iff some cycle of `graph` has an odd number of negative edges.
/// Linear time: SCC + Lemma-1 per component.
bool HasOddCycle(const SignedDigraph& graph);

/// Returns the edge ids of a *simple* cycle with an odd number of negative
/// edges (in traversal order, cycle[i].to == cycle[i+1].from, last wraps to
/// first), or an empty vector if the graph has no odd cycle.
std::vector<int32_t> FindOddCycle(const SignedDigraph& graph);

/// Returns the edge ids of a simple cycle containing at least one negative
/// edge, or empty if every cycle is all-positive (i.e. the graph is
/// "stratified" when read as a program graph).
std::vector<int32_t> FindNegativeCycle(const SignedDigraph& graph);

}  // namespace tiebreak

#endif  // TIEBREAK_GRAPH_TIE_H_
