#include "ground/close.h"

#include <algorithm>

#include "util/execution_context.h"

namespace tiebreak {

namespace {

// Worklist pops between resource checkpoints in Drain and
// LargestUnfoundedSet; each pop is a few cache lines of CSR arc work.
constexpr int32_t kClosePollBlock = 256;
// Queue pops per prefetch block in LargestUnfoundedSet: each popped atom's
// consumer span start is prefetched a block ahead of its scatter work.
constexpr int32_t kUnfoundedPrefetchBlock = 64;

// Shared constructor prologue: per-rule pending counters (unresolved body
// edges) and per-atom support counters (live rules per head), straight off
// the CSR arenas.
void InitCounters(const GroundGraph& graph, std::vector<int32_t>* pending,
                  std::vector<int32_t>* support) {
  pending->assign(graph.num_rules(), 0);
  support->assign(graph.num_atoms(), 0);
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    (*pending)[r] = graph.BodySize(r);
    ++(*support)[graph.HeadOf(r)];
  }
}

}  // namespace

CloseState::CloseState(const Program& program, const Database& database,
                       const GroundGraph& graph, ExecutionContext* context)
    : graph_(&graph), exec_(context) {
  TIEBREAK_CHECK(graph.finalized());
  const int32_t n = graph.num_atoms();
  value_.assign(n, Truth::kUndef);
  num_live_atoms_ = n;
  rule_dead_.assign(graph.num_rules(), 0);
  InitCounters(graph, &rule_pending_, &atom_support_);
  // M0(Δ), bulk: Δ atoms true (one DeltaAtomMask scan over the columnar
  // relations), then EDB atoms outside Δ false (one pass over the flat
  // predicate array; EDB atoms exist as nodes only in faithful graphs).
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  std::vector<char> is_edb(program.num_predicates(), 0);
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    is_edb[p] = program.IsEdb(p) ? 1 : 0;
  }
  for (AtomId a = 0; a < n; ++a) {
    if (in_delta[a]) {
      Assign(a, Truth::kTrue);
    } else if (is_edb[graph.atoms().PredicateOf(a)]) {
      Assign(a, Truth::kFalse);
    }
  }
  InitialClose();
}

CloseState::CloseState(const GroundGraph& graph,
                       const std::vector<Truth>& initial,
                       ExecutionContext* context)
    : graph_(&graph), exec_(context) {
  TIEBREAK_CHECK(graph.finalized());
  const int32_t n = graph.num_atoms();
  TIEBREAK_CHECK_EQ(static_cast<int32_t>(initial.size()), n);
  value_.assign(n, Truth::kUndef);
  num_live_atoms_ = n;
  rule_dead_.assign(graph.num_rules(), 0);
  InitCounters(graph, &rule_pending_, &atom_support_);
  for (AtomId a = 0; a < n; ++a) {
    if (initial[a] != Truth::kUndef) Assign(a, initial[a]);
  }
  InitialClose();
}

void CloseState::InitialClose() {
  // Empty-body rule nodes have no incoming edges: they fire immediately.
  for (int32_t r = 0; r < graph_->num_rules(); ++r) {
    if (!rule_dead_[r] && rule_pending_[r] == 0) {
      rule_dead_[r] = 1;
      const AtomId head = graph_->HeadOf(r);
      if (value_[head] == Truth::kUndef) Assign(head, Truth::kTrue);
      TIEBREAK_CHECK(value_[head] == Truth::kTrue)
          << "empty-body rule with false head";
      DecSupport(head);
    }
  }
  // Atoms with no incoming edges are false.
  for (AtomId a = 0; a < graph_->num_atoms(); ++a) {
    if (atom_support_[a] == 0 && value_[a] == Truth::kUndef) {
      Assign(a, Truth::kFalse);
    }
  }
  Drain();
}

void CloseState::Assign(AtomId atom, Truth value) {
  TIEBREAK_CHECK(value != Truth::kUndef);
  TIEBREAK_CHECK(value_[atom] == Truth::kUndef)
      << "atom " << atom << " assigned twice";
  value_[atom] = value;
  --num_live_atoms_;
  worklist_.push_back(atom);
}

void CloseState::Drain() {
  int32_t drained = 0;
  while (!worklist_.empty()) {
    // A trip stops between pops: every assignment made so far was forced
    // (close is monotone), so the partial state stays sound; the remaining
    // worklist entries are left unpropagated and the caller reads the trip
    // from the context.
    if (exec_ != nullptr && (++drained & (kClosePollBlock - 1)) == 0 &&
        !exec_->Checkpoint("close", kClosePollBlock).ok()) {
      return;
    }
    const AtomId atom = worklist_.back();
    worklist_.pop_back();
    const bool is_true = value_[atom] == Truth::kTrue;
    // Deleting the atom removes its outgoing body arcs; arcs whose sign
    // matches the value leave satisfied rules (pending--), the others kill
    // their rule node.
    for (int32_t r : graph_->PositiveConsumers(atom)) {
      if (is_true) {
        DecPending(r);
      } else {
        KillRule(r);
      }
    }
    for (int32_t r : graph_->NegativeConsumers(atom)) {
      if (is_true) {
        KillRule(r);
      } else {
        DecPending(r);
      }
    }
  }
}

void CloseState::KillRule(int32_t rule) {
  if (rule_dead_[rule]) return;
  rule_dead_[rule] = 1;
  DecSupport(graph_->HeadOf(rule));
}

void CloseState::DecPending(int32_t rule) {
  if (rule_dead_[rule]) return;
  if (--rule_pending_[rule] > 0) return;
  // No incoming edges left: the rule fires and is deleted.
  rule_dead_[rule] = 1;
  const AtomId head = graph_->HeadOf(rule);
  if (value_[head] == Truth::kUndef) {
    Assign(head, Truth::kTrue);
  } else {
    TIEBREAK_CHECK(value_[head] == Truth::kTrue)
        << "fired rule for an atom already false";
  }
  DecSupport(head);
}

void CloseState::DecSupport(AtomId atom) {
  if (--atom_support_[atom] > 0) return;
  if (value_[atom] == Truth::kUndef) Assign(atom, Truth::kFalse);
}

std::vector<AtomId> CloseState::LiveAtoms() const {
  std::vector<AtomId> live;
  for (AtomId a = 0; a < graph_->num_atoms(); ++a) {
    if (value_[a] == Truth::kUndef) live.push_back(a);
  }
  return live;
}

std::vector<int32_t> CloseState::LiveRules() const {
  std::vector<int32_t> live;
  for (int32_t r = 0; r < graph_->num_rules(); ++r) {
    if (!rule_dead_[r]) live.push_back(r);
  }
  return live;
}

std::vector<AtomId> CloseState::LargestUnfoundedSet() const {
  // Simulates close over the positive-edge live subgraph G+ on scratch
  // copies of the counters. The result is the unique greatest unfounded
  // set — a monotone closure, so processing order cannot change it — which
  // is what lets the queue drain in prefetched blocks.
  // States: 0 = open, 1 = "founded" (deleted as true), 2 = deleted as false.
  const GroundGraph& graph = *graph_;
  const int32_t n = graph.num_atoms();
  std::vector<char> state(n, 0);
  std::vector<char> dead = rule_dead_;
  std::vector<int32_t> pending(graph.num_rules(), 0);
  std::vector<int32_t> support = atom_support_;
  std::vector<AtomId> queue;

  auto is_open = [&](AtomId a) {
    return value_[a] == Truth::kUndef && state[a] == 0;
  };
  auto mark = [&](AtomId a, char s) {
    state[a] = s;
    queue.push_back(a);
  };
  // Deletes a live rule of G+: its head loses one support, and an open
  // head left without support is deleted as false.
  auto drop_support = [&](int32_t r) {
    dead[r] = 1;
    const AtomId head = graph.HeadOf(r);
    if (--support[head] <= 0 && is_open(head)) mark(head, 2);
  };

  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    if (dead[r]) continue;
    int32_t live_pos = 0;
    for (AtomId a : graph.PositiveBody(r)) {
      if (value_[a] == Truth::kUndef) ++live_pos;
    }
    pending[r] = live_pos;
    if (live_pos == 0) {
      // Source rule node in G+: its head is founded.
      dead[r] = 1;
      const AtomId head = graph.HeadOf(r);
      if (is_open(head)) mark(head, 1);
      --support[head];
    }
  }
  for (AtomId a = 0; a < n; ++a) {
    if (is_open(a) && support[a] <= 0) mark(a, 2);
  }

  int32_t drained = 0;
  AtomId batch[kUnfoundedPrefetchBlock];
  while (!queue.empty()) {
    // Pop a block off the queue tail and prefetch every popped atom's
    // positive-consumer span before scattering into any of them. New marks
    // append behind the popped tail and wait for the next block.
    const int32_t take = static_cast<int32_t>(
        std::min<size_t>(kUnfoundedPrefetchBlock, queue.size()));
    for (int32_t i = 0; i < take; ++i) {
      batch[i] = queue[queue.size() - take + i];
    }
    queue.resize(queue.size() - take);
    for (int32_t i = 0; i < take; ++i) {
      __builtin_prefetch(graph.PositiveConsumers(batch[i]).data());
    }
    for (int32_t i = 0; i < take; ++i) {
      // A partial simulation proves nothing about which atoms are
      // unfounded, so a trip abandons it and reports the empty set — the
      // caller's loop terminates and reads the trip from the context.
      if (exec_ != nullptr && (++drained & (kClosePollBlock - 1)) == 0 &&
          !exec_->Checkpoint("close", kClosePollBlock).ok()) {
        return {};
      }
      const AtomId atom = batch[i];
      const bool founded = state[atom] == 1;
      for (int32_t r : graph.PositiveConsumers(atom)) {
        if (dead[r]) continue;
        if (!founded) {
          drop_support(r);
        } else if (--pending[r] <= 0) {
          const AtomId head = graph.HeadOf(r);
          if (is_open(head)) mark(head, 1);
          drop_support(r);
        }
      }
    }
  }

  std::vector<AtomId> unfounded;
  for (AtomId a = 0; a < n; ++a) {
    if (is_open(a)) unfounded.push_back(a);
  }
  return unfounded;
}

}  // namespace tiebreak
