// The close(M, G) procedure of Section 2, implemented as a *persistent*
// propagation state: because close is monotone (atoms only gain truth
// values, nodes are only ever deleted), one CloseState instance serves a
// whole interpreter run — each SetAndClose() continues from the current
// graph, and the total work over a run is O(edges).
//
// The four rewrite rules of the paper map to worklist events:
//   atom a true   -> delete a; kill rules with a negative arc (a, r);
//                    positive arcs (a, r) disappear (pending--).
//   atom a false  -> delete a; kill rules with a positive arc (a, r);
//                    negative arcs (a, r) disappear (pending--).
//   rule r with no incoming edges (pending == 0) -> head := true, delete r.
//   atom a with no incoming edges (support == 0) -> a := false.
//
// The state keeps one 8-byte record per rule node and one per atom beside
// the values, so each arc event touches one rule record and, while the
// head is live, one atom record:
//   rule node: its head, a *source* bit, and its unresolved body edges
//              (pending), which go negative once the node is deleted. The
//              source bit is set when the instance has no positive body
//              atom at all, which makes the node a source of the positive
//              subgraph G+ for as long as it lives. It is static on
//              purpose: a rule whose positive body atoms have all turned
//              true is a G+ source too, but tracking that would cost a
//              counter update on every positive arc.
//   atom:      its live supporters and how many of them are sources. The
//              counters of a decided atom are frozen: deleting one of its
//              supporters changes nothing that is read again, so that
//              deletion does no counter work.
//
// The largest unfounded set is Atoms[close(M, G+)]. A live source
// supporter founds its head in G+ outright, so when every live atom has
// one (on a win/move board every rule body is one negative atom) one scan
// of the atom records proves the set empty; only otherwise is close over
// G+ simulated (LargestUnfoundedSet).
//
// Confluence (the paper: "these are uniquely determined, independent of the
// order") is exercised by randomized-order tests in ground_test.cc.
#ifndef TIEBREAK_GROUND_CLOSE_H_
#define TIEBREAK_GROUND_CLOSE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"

namespace tiebreak {

// Forward-declared (util/execution_context.h): the state only stores and
// polls a pointer to it.
class ExecutionContext;

/// Persistent close(M, G) state over one ground graph.
///
/// Resource governance: with a non-null context, Drain checkpoints every
/// 256 worklist pops and LargestUnfoundedSet's simulation every 256 queue
/// pops. On a trip, Drain stops between pops — every value assigned so far
/// stays sound (close is monotone: each assignment was forced by the
/// rules), the remaining worklist is simply not propagated. Once the
/// context has stopped, LargestUnfoundedSet returns an empty set at once,
/// and a trip inside its simulation abandons it the same way: a
/// half-propagated state or a partial simulation proves nothing about
/// unfoundedness. Callers distinguish a trip from completion through the
/// context's status.
class CloseState {
 public:
  /// Starts from the paper's initial model M0(Δ): atoms listed in Δ are
  /// true, EDB atoms not in Δ are false, IDB atoms not in Δ are undefined —
  /// then runs the initial close to fixpoint. M0 is built bulk-first: one
  /// scan over Δ's columnar relations with atom-store hash lookups, then
  /// one pass over the EDB atoms — no per-atom Database::Contains, no
  /// materialized Tuples.
  CloseState(const Program& program, const Database& database,
             const GroundGraph& graph, ExecutionContext* context = nullptr);

  /// Starts from an explicit initial assignment (Truth per AtomId; kUndef
  /// entries stay open) and closes. Used by tests only, among them the
  /// close(M⁻, G) stability check kept as the reference for
  /// core/stable.h.
  CloseState(const GroundGraph& graph, const std::vector<Truth>& initial,
             ExecutionContext* context = nullptr);

  /// Assigns `value` to the live atom `atom` and propagates to fixpoint.
  void SetAndClose(AtomId atom, bool value) {
    Assign(atom, value ? Truth::kTrue : Truth::kFalse);
    Drain();
  }

  /// Assigns a batch (all atoms must be live), then propagates once.
  void SetAndClose(const std::vector<std::pair<AtomId, bool>>& assignments) {
    for (const auto& [atom, value] : assignments) {
      Assign(atom, value ? Truth::kTrue : Truth::kFalse);
    }
    Drain();
  }

  /// The current value of `atom` (CHECKs the id), whether it is still in
  /// the graph (undefined), and whether rule node `rule` is.
  Truth Value(AtomId atom) const {
    TIEBREAK_CHECK_GE(atom, 0);
    TIEBREAK_CHECK_LT(atom, graph_->num_atoms());
    return value_[atom];
  }
  bool AtomLive(AtomId atom) const { return Value(atom) == Truth::kUndef; }
  bool RuleLive(int32_t rule) const {
    TIEBREAK_CHECK_GE(rule, 0);
    TIEBREAK_CHECK_LT(rule, graph_->num_rules());
    return rules_[rule].pending >= 0;
  }

  /// Atoms still undefined; the state is total when none is left.
  int32_t num_live_atoms() const { return num_live_atoms_; }
  bool IsTotal() const { return num_live_atoms_ == 0; }
  /// Rule nodes still in the graph.
  int32_t num_live_rules() const { return num_live_rules_; }

  /// Ascending ids of atoms still in the graph (undefined).
  std::vector<AtomId> LiveAtoms() const;
  /// Ascending ids of rule nodes still in the graph.
  std::vector<int32_t> LiveRules() const;

  /// The largest unfounded set Atoms[close(M, G+)] of the *current* state,
  /// ascending (Section 2). Empty result means the well-founded interpreter
  /// is done (or stuck on ties). One scan of the atom records first: when
  /// every live atom still has a live source supporter, close over G+
  /// founds them all, and the set is empty with nothing allocated.
  /// Otherwise it simulates close over the positive-edge subgraph of the
  /// live graph from one sweep of the live rule records and returns the
  /// atoms left without a value.
  std::vector<AtomId> LargestUnfoundedSet() const;

  /// The full assignment so far (by AtomId).
  const std::vector<Truth>& values() const { return value_; }

  /// The ground graph this state closes over.
  const GroundGraph& graph() const { return *graph_; }

  /// The governing context (null = ungoverned). Passes over the state that
  /// live outside this class, such as the tie pass, checkpoint on it too.
  ExecutionContext* context() const { return exec_; }

 private:
  // One rule node: head << 1 | source bit, and the unresolved body edges
  // (kDeleted once the node is deleted).
  struct RuleNode {
    uint32_t head_source;
    int32_t pending;
    AtomId head() const { return static_cast<AtomId>(head_source >> 1); }
    int32_t source() const { return static_cast<int32_t>(head_source & 1); }
  };
  // One atom: its live supporters, and how many of them are sources.
  // Frozen once the atom is decided.
  struct AtomCounts {
    int32_t support;
    int32_t sources;
  };
  static constexpr int32_t kDeleted = -1;

  void InitRecords();
  void Assign(AtomId atom, Truth value);
  void Drain();
  void KillRule(int32_t rule);
  void DecPending(int32_t rule);
  void DecSupport(AtomId atom, int32_t source);
  void InitialClose();

  const GroundGraph* graph_;
  ExecutionContext* exec_ = nullptr;  // not owned; null = ungoverned
  std::vector<Truth> value_;
  std::vector<RuleNode> rules_;
  std::vector<AtomCounts> atoms_;
  std::vector<AtomId> worklist_;  // freshly assigned atoms
  int32_t num_live_atoms_ = 0;
  int32_t num_live_rules_ = 0;
};

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_CLOSE_H_
