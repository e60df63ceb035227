// SCC condensation, the Lemma-1 tie test and topological wave scheduling
// directly over GroundGraph CSR spans — no SignedDigraph copy. This is what
// lets the tie-breaking interpreters condense the live subgraph of
// G(Π, Δ) at memory-bandwidth cost, and the perfect-model interpreter fan
// independent components out over the thread pool.
//
// Node space: atoms occupy ids [0, num_atoms), rule instance r is node
// num_atoms + r. Edges follow the paper's ground graph: positive body atom
// -> rule (positive), negated body atom -> rule (negative), rule -> head
// (positive). A GroundLiveness restricts everything to the live subgraph
// (undefined atoms, un-dead rules), exactly the graph ground/live_graph.h
// used to materialize.
//
// Equivalence contract: ComputeGroundScc reproduces ComputeScc over the
// materialized graph *exactly* — same component ids, same member order —
// because an atom's neighbors are enumerated by merging its positive and
// negative consumer spans in ascending rule order with positive first on
// ties, which is precisely the edge insertion order of live_graph.cc /
// perfect_model's FullGraph (both consumer spans are ascending by
// GroundGraph::Finalize construction) — and the same DFS tree, so the same
// sign parities. The tie-breaking interpreters depend on this: Lemma-1
// partition sides are labeled relative to members.front(), so a different
// DFS order would silently flip default-policy tie orientations. interpreter_parallel_test.cc asserts the equivalence on
// randomized programs.
#ifndef TIEBREAK_GROUND_GROUND_SCC_H_
#define TIEBREAK_GROUND_GROUND_SCC_H_

#include <cstdint>
#include <vector>

#include "graph/scc.h"
#include "ground/ground_graph.h"
#include "ground/truth.h"

namespace tiebreak {

/// Restriction of the ground graph to its live subgraph. Null pointers mean
/// "everything live" (the full graph, as perfect_model uses it). The arrays
/// are borrowed and must outlive every call they are passed to.
struct GroundLiveness {
  /// Per-atom truth; an atom is live iff kUndef. Null = all atoms live.
  const Truth* atom_value = nullptr;
  /// Per-rule dead flag; a rule is live iff 0. Null = all rules live.
  const char* rule_dead = nullptr;

  bool AtomLive(AtomId a) const {
    return atom_value == nullptr || atom_value[a] == Truth::kUndef;
  }
  bool RuleAlive(int32_t r) const {
    return rule_dead == nullptr || rule_dead[r] == 0;
  }
};

/// Adjacency adapter feeding ComputeSccOver from the CSR spans; exposed so
/// the schedule builder and tie check reuse the same neighbor enumeration.
struct GroundAdjacency {
  const GroundGraph* graph;
  GroundLiveness live;

  /// Merge positions into the positive/negative consumer spans of an atom
  /// (rule nodes use neither; their single head edge is tracked by `pos`).
  struct Cursor {
    size_t pos = 0;
    size_t neg = 0;
  };

  int32_t num_nodes() const {
    return graph->num_atoms() + graph->num_rules();
  }
  bool Alive(int32_t node) const {
    return node < graph->num_atoms()
               ? live.AtomLive(node)
               : live.RuleAlive(node - graph->num_atoms());
  }
  Cursor FirstEdge(int32_t) const { return Cursor{}; }
  int32_t NextNeighbor(int32_t node, Cursor& cursor, bool* negative) const {
    const int32_t num_atoms = graph->num_atoms();
    if (node < num_atoms) {
      // Merged consumer walk: ascending rule id, positive before negative
      // on ties — the live_graph.cc edge insertion order (see file
      // comment). Dead rules carry no edges.
      const IdSpan pos = graph->PositiveConsumers(node);
      const IdSpan neg = graph->NegativeConsumers(node);
      while (cursor.pos < pos.size() || cursor.neg < neg.size()) {
        int32_t r;
        if (cursor.neg >= neg.size() ||
            (cursor.pos < pos.size() && pos[cursor.pos] <= neg[cursor.neg])) {
          r = pos[cursor.pos++];
          *negative = false;
        } else {
          r = neg[cursor.neg++];
          *negative = true;
        }
        if (live.RuleAlive(r)) return num_atoms + r;
      }
      return -1;
    }
    // Rule node: one positive head edge, present while the head is live.
    if (cursor.pos != 0) return -1;
    cursor.pos = 1;
    *negative = false;
    const AtomId head = graph->HeadOf(node - num_atoms);
    return live.AtomLive(head) ? head : -1;
  }
};

/// Tarjan directly over the CSR spans. Dead nodes get component -1 and
/// appear in no member list. See the file comment for the equivalence
/// guarantee against ComputeScc over the materialized live graph.
SccResult ComputeGroundScc(const GroundGraph& graph,
                           const GroundLiveness& live = {});

/// Condensation facts (bottom test, internal-edge test) over the same node
/// space, matching CondenseScc over the materialized graph.
Condensation CondenseGroundScc(const GroundGraph& graph, const SccResult& scc,
                               const GroundLiveness& live = {});

/// Topological wave schedule of the condensation: wave(c) is the longest
/// dependency-path depth of component c, so every component's dependencies
/// sit in strictly earlier waves and all components of one wave are
/// mutually edge-free — they may evaluate concurrently. Within a wave,
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

  int32_t num_waves() const {
    return static_cast<int32_t>(wave_offset.size()) - 1;
  }
};

/// Condenses the (live) ground graph and levels the condensation into
/// waves. One SCC pass plus one descending-id relaxation sweep.
SccSchedule BuildSccSchedule(const GroundGraph& graph,
                             const GroundLiveness& live = {});

/// Lemma-1 test on component `comp` of a ground SCC result: true iff the
/// component is a tie. Tarjan's DFS tree spans the component with paths
/// inside it, so `scc.parity` already labels each member with a side; the
/// test is one sweep checking every internal edge against that labeling (a
/// positive edge keeps the parity, a negative one flips it). A component
/// with an odd cycle fails on some edge outside the tree. For a tie, the
/// side of member v is scc.parity[v] ^ scc.parity[Members(comp).front()]:
/// side 0 = same parity as the front, as in TieCheckResult, so tie
/// orientations match the materialized route.
bool CheckGroundTie(const GroundGraph& graph, const SccResult& scc,
                    int32_t comp);

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_GROUND_SCC_H_
