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

}  // namespace

CloseState::CloseState(const Program& program, const Database& database,
                       const GroundGraph& graph, ExecutionContext* context)
    : graph_(&graph), exec_(context) {
  InitRecords();
  // M0(Δ), bulk: Δ atoms true (one DeltaAtomMask scan over the columnar
  // relations), then EDB atoms outside Δ false (one pass over the flat
  // predicate array; EDB atoms exist as nodes only in faithful graphs).
  const std::vector<char> in_delta = DeltaAtomMask(database, graph.atoms());
  std::vector<char> is_edb(program.num_predicates(), 0);
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    is_edb[p] = program.IsEdb(p) ? 1 : 0;
  }
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
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
  TIEBREAK_CHECK_EQ(static_cast<int32_t>(initial.size()), graph.num_atoms());
  InitRecords();
  for (AtomId a = 0; a < graph.num_atoms(); ++a) {
    if (initial[a] != Truth::kUndef) Assign(a, initial[a]);
  }
  InitialClose();
}

// Shared constructor prologue: every atom undefined, every rule node live
// with all its body edges unresolved, each head counting its supporters
// and its source supporters, straight off the CSR arenas.
void CloseState::InitRecords() {
  const GroundGraph& graph = *graph_;
  TIEBREAK_CHECK(graph.finalized());
  value_.assign(graph.num_atoms(), Truth::kUndef);
  num_live_atoms_ = graph.num_atoms();
  num_live_rules_ = graph.num_rules();
  rules_.resize(graph.num_rules());
  atoms_.assign(graph.num_atoms(), AtomCounts{0, 0});
  const Span<AtomId> heads = graph.heads();
  const Span<int64_t> body_offset = graph.body_offsets();
  const Span<int64_t> pos_end = graph.pos_ends();
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const uint32_t source = pos_end[r] == body_offset[r] ? 1 : 0;
    rules_[r] = RuleNode{static_cast<uint32_t>(heads[r]) << 1 | source,
                         static_cast<int32_t>(body_offset[r + 1] -
                                              body_offset[r])};
    AtomCounts& counts = atoms_[heads[r]];
    ++counts.support;
    counts.sources += static_cast<int32_t>(source);
  }
}

void CloseState::InitialClose() {
  // Empty-body rule nodes have no incoming edges: they fire immediately,
  // and their heads, now true, keep frozen counters.
  for (RuleNode& node : rules_) {
    if (node.pending != 0) continue;
    node.pending = kDeleted;
    --num_live_rules_;
    const AtomId head = node.head();
    if (value_[head] == Truth::kUndef) Assign(head, Truth::kTrue);
    TIEBREAK_CHECK(value_[head] == Truth::kTrue)
        << "empty-body rule with false head";
  }
  // Atoms with no incoming edges are false.
  for (AtomId a = 0; a < graph_->num_atoms(); ++a) {
    if (atoms_[a].support == 0 && value_[a] == Truth::kUndef) {
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
  RuleNode& node = rules_[rule];
  if (node.pending < 0) return;
  node.pending = kDeleted;
  --num_live_rules_;
  DecSupport(node.head(), node.source());
}

void CloseState::DecPending(int32_t rule) {
  RuleNode& node = rules_[rule];
  if (node.pending < 0 || --node.pending > 0) return;
  // No incoming edges left: the rule fires and is deleted. Its head is
  // true from here on, so its counters need no update.
  node.pending = kDeleted;
  --num_live_rules_;
  const AtomId head = node.head();
  if (value_[head] == Truth::kUndef) {
    Assign(head, Truth::kTrue);
  } else {
    TIEBREAK_CHECK(value_[head] == Truth::kTrue)
        << "fired rule for an atom already false";
  }
}

void CloseState::DecSupport(AtomId atom, int32_t source) {
  // A decided atom's counters are frozen: nothing reads them again.
  if (value_[atom] != Truth::kUndef) return;
  AtomCounts& counts = atoms_[atom];
  counts.sources -= source;
  if (--counts.support == 0) Assign(atom, Truth::kFalse);
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
    if (rules_[r].pending >= 0) live.push_back(r);
  }
  return live;
}

std::vector<AtomId> CloseState::LargestUnfoundedSet() const {
  // A tripped state may be half-propagated; see the class comment.
  if (exec_ != nullptr && exec_->stopped()) return {};
  const GroundGraph& graph = *graph_;
  const int32_t n = graph.num_atoms();
  // A live source supporter has no incoming G+ edge, so close over G+
  // fires it and founds its head. When every live atom has one, nothing is
  // unfounded.
  AtomId first_unsourced = 0;
  while (first_unsourced < n && (value_[first_unsourced] != Truth::kUndef ||
                                 atoms_[first_unsourced].sources > 0)) {
    ++first_unsourced;
  }
  if (first_unsourced == n) return {};

  // Otherwise simulate close over the live G+ on scratch counters. The
  // result is the unique greatest unfounded set — a monotone closure, so
  // processing order cannot change it — which is what lets the queue drain
  // in prefetched blocks. pending[r] counts rule r's live positive body
  // atoms, and is negative once r is out of the simulated graph.
  // States: 0 = open, 1 = "founded" (deleted as true), 2 = deleted as false.
  std::vector<char> state(n, 0);
  std::vector<int32_t> pending(graph.num_rules());
  std::vector<int32_t> support(n);
  for (AtomId a = 0; a < n; ++a) support[a] = atoms_[a].support;
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
    pending[r] = kDeleted;
    const AtomId head = rules_[r].head();
    if (--support[head] <= 0 && is_open(head)) mark(head, 2);
  };

  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    const RuleNode node = rules_[r];
    pending[r] = kDeleted;
    if (node.pending < 0) continue;
    int32_t live_pos = 0;
    if (!node.source()) {
      for (AtomId a : graph.PositiveBody(r)) {
        if (value_[a] == Truth::kUndef) ++live_pos;
      }
    }
    if (live_pos > 0) {
      pending[r] = live_pos;
      continue;
    }
    // Source rule node in G+: its head is founded.
    const AtomId head = node.head();
    if (is_open(head)) mark(head, 1);
    --support[head];
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
        if (pending[r] < 0) continue;
        if (!founded) {
          drop_support(r);
        } else if (--pending[r] <= 0) {
          const AtomId head = rules_[r].head();
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
