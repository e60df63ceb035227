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
// Confluence (the paper: "these are uniquely determined, independent of the
// order") is exercised by randomized-order tests in ground_test.cc.
#ifndef TIEBREAK_GROUND_CLOSE_H_
#define TIEBREAK_GROUND_CLOSE_H_

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
/// 256 worklist pops and LargestUnfoundedSet every 256 queue pops. On a
/// trip, Drain stops between pops — every value assigned so far stays
/// sound (close is monotone: each assignment was forced by the rules), the
/// remaining worklist is simply not propagated — and LargestUnfoundedSet
/// returns an empty set (a partial simulation proves nothing about
/// unfoundedness). Callers distinguish a trip from completion through the
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
  bool RuleLive(int32_t rule) const { return rule_dead_[rule] == 0; }

  /// Atoms still undefined; the state is total when none is left.
  int32_t num_live_atoms() const { return num_live_atoms_; }
  bool IsTotal() const { return num_live_atoms_ == 0; }

  /// Ascending ids of atoms still in the graph (undefined).
  std::vector<AtomId> LiveAtoms() const;
  /// Ascending ids of rule nodes still in the graph.
  std::vector<int32_t> LiveRules() const;

  /// The largest unfounded set Atoms[close(M, G+)] of the *current* state:
  /// simulates close over the positive-edge subgraph of the live graph and
  /// returns the atoms left without a value (Section 2). Empty result means
  /// the well-founded interpreter is done (or stuck on ties).
  std::vector<AtomId> LargestUnfoundedSet() const;

  /// The full assignment so far (by AtomId).
  const std::vector<Truth>& values() const { return value_; }

  /// Per-rule deleted flags (1 = node removed from the graph). The tie pass
  /// (core/tie_breaking.h, FindBottomTies) reads them with values() to
  /// sweep the live rules.
  const std::vector<char>& rule_dead() const { return rule_dead_; }

  /// The ground graph this state closes over.
  const GroundGraph& graph() const { return *graph_; }

  /// The governing context (null = ungoverned). Passes over the state that
  /// live outside this class, such as the tie pass, checkpoint on it too.
  ExecutionContext* context() const { return exec_; }

 private:
  void Assign(AtomId atom, Truth value);
  void Drain();
  void KillRule(int32_t rule);
  void DecPending(int32_t rule);
  void DecSupport(AtomId atom);
  void InitialClose();

  const GroundGraph* graph_;
  ExecutionContext* exec_ = nullptr;  // not owned; null = ungoverned
  std::vector<Truth> value_;
  std::vector<char> rule_dead_;
  std::vector<int32_t> rule_pending_;  // unresolved body edges per rule
  std::vector<int32_t> atom_support_;  // live rules with this head
  std::vector<AtomId> worklist_;       // freshly assigned atoms
  int32_t num_live_atoms_ = 0;
};

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_CLOSE_H_
