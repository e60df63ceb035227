#include "core/tie_breaking.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/execution_context.h"
#include "util/span.h"

namespace tiebreak {

namespace {

// Live atoms visited between tie-pass checkpoints, as in Drain.
constexpr int32_t kTiePollBlock = 256;

// One signed edge a -> head of the atom-level live graph: `a` is a live body
// atom of a live rule whose head is live. `target` packs head << 1 |
// negative. `rule` is the rule's visited-bit slot when it has several live
// body occurrences (the first traversal alone discovers the rule node), and
// -1 when this is its only one.
struct LiveEdge {
  uint32_t target;
  int32_t rule;
};

// Per-atom state: the atom's edge list and its Tarjan state, in one record
// so that discovering an atom touches one cache line. `index` is the
// discovery index while the atom is on the Tarjan stack; kUnvisited before;
// kPopped, or kCandidate - slot for a member of candidate tie `slot`, once
// its component has popped.
struct AtomState {
  int32_t index;
  int32_t low;
  uint32_t begin;  // edges[begin, next atom's begin)
  uint8_t parity;  // negative edges, mod 2, on the DFS-tree path
  uint8_t flags;   // the k* marks below, OR-ed up to the component root
};
constexpr int32_t kUnvisited = -1;
constexpr int32_t kPopped = -2;
constexpr int32_t kCandidate = -3;
constexpr uint8_t kInternal = 1;  // an edge stays inside the component
constexpr uint8_t kOdd = 2;       // ... and breaks the Lemma-1 labeling

}  // namespace

std::vector<TieView> FindBottomTies(const CloseState& state) {
  const GroundGraph& graph = state.graph();
  const int32_t num_atoms = graph.num_atoms();
  const Truth* value = state.values().data();
  ExecutionContext* context = state.context();
  // Only a trip leaves a state half-propagated; see the header.
  if (state.num_live_atoms() == 0 ||
      (context != nullptr && context->stopped())) {
    return {};
  }

  // One sweep over the rules collects the live signed edges
  // body atom -> head, in ascending rule id with each rule's positive body
  // before its negative body, and counts them per atom. The stable scatter
  // below then lists each atom's edges in exactly the merged order of its
  // positive and negative consumer spans, which is the edge order of the
  // node-level live graph the tie list is defined over. Close fires or
  // kills a rule once no body atom of it is live, so every live rule node
  // has an in-edge here and only atoms can enter a component.
  const Span<AtomId> heads = graph.heads();
  const Span<int64_t> body_offset = graph.body_offsets();
  const Span<int64_t> pos_end = graph.pos_ends();
  const Span<AtomId> body = graph.body_arena();
  // One sentinel record past the last atom ends the last edge list.
  std::vector<AtomState> atom(num_atoms + 1,
                              AtomState{kUnvisited, 0, 0, 0, 0});
  struct SourcedEdge {
    AtomId from;
    LiveEdge edge;
  };
  std::vector<SourcedEdge> sweep;
  int32_t num_shared_rules = 0;
  for (int32_t r = 0; r < graph.num_rules(); ++r) {
    if (!state.RuleLive(r)) continue;
    const AtomId head = heads[r];
    if (value[head] != Truth::kUndef) continue;
    const size_t first = sweep.size();
    for (int64_t i = body_offset[r]; i < body_offset[r + 1]; ++i) {
      const AtomId a = body[i];
      if (value[a] != Truth::kUndef) continue;
      const uint32_t negative = i >= pos_end[r] ? 1 : 0;
      sweep.push_back({a, {static_cast<uint32_t>(head) << 1 | negative, -1}});
      ++atom[a].begin;
    }
    if (sweep.size() > first + 1) {
      for (size_t i = first; i < sweep.size(); ++i) {
        sweep[i].edge.rule = num_shared_rules;
      }
      ++num_shared_rules;
    }
  }
  // Inclusive prefix sums make `begin` the end of each list; scattering
  // the sweep backwards walks it down to the list's start and keeps every
  // list in sweep order. (Live edges are body occurrences, far fewer than
  // 2^32 on any graph that fits in memory.)
  TIEBREAK_CHECK_LE(sweep.size(), size_t{UINT32_MAX});
  for (int32_t a = 1; a <= num_atoms; ++a) atom[a].begin += atom[a - 1].begin;
  std::vector<LiveEdge> edges(sweep.size());
  for (size_t i = sweep.size(); i-- > 0;) {
    edges[--atom[sweep[i].from].begin] = sweep[i].edge;
  }
  sweep = {};

  // Then one iterative Tarjan over the live atoms, roots ascending. An
  // edge into an unvisited atom is a tree edge; one into an on-stack atom
  // stays inside the component and must keep the Lemma-1 labeling; one
  // into a popped component makes that component not bottom, as does the
  // tree edge into a component's root.
  struct Frame {
    AtomId atom;
    uint32_t next;
    uint32_t end;
  };
  // A rule node first traversed from a member into an on-stack member is
  // itself a member, discovered after `stamp` atoms, with the head's
  // parity. It is the member the node-level DFS discovered last when no
  // atom of its component came after it.
  struct RuleFront {
    int32_t stamp;
    uint8_t parity;
  };
  struct Candidate {
    size_t begin;  // members[begin, end)
    size_t end;
    uint8_t front_parity;  // side 0's parity
    bool entered;
  };
  std::vector<Frame> frames;
  std::vector<AtomId> tarjan_stack;
  std::vector<RuleFront> fronts;
  std::vector<char> rule_seen(num_shared_rules, 0);
  std::vector<AtomId> members;
  std::vector<Candidate> candidates;
  int32_t next_index = 0;

  // Discovers `a`; false when the context trips.
  auto discover = [&](AtomId a, uint8_t parity) {
    AtomState& s = atom[a];
    s.index = s.low = next_index++;
    s.parity = parity;
    tarjan_stack.push_back(a);
    frames.push_back(Frame{a, s.begin, atom[a + 1].begin});
    return context == nullptr || (next_index & (kTiePollBlock - 1)) != 0 ||
           context->Checkpoint("tie_pass", kTiePollBlock).ok();
  };

  for (AtomId root = 0; root < num_atoms; ++root) {
    if (value[root] != Truth::kUndef || atom[root].index != kUnvisited) {
      continue;
    }
    // A partial pass proves nothing about which components are bottom
    // ties, so a trip reports none.
    if (!discover(root, 0)) return {};
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const AtomId v = frame.atom;
      if (frame.next < frame.end) {
        const LiveEdge edge = edges[frame.next++];
        // The next target's state is a random access; start it now.
        if (frame.next < frame.end) {
          __builtin_prefetch(&atom[edges[frame.next].target >> 1]);
        }
        const AtomId h = static_cast<AtomId>(edge.target >> 1);
        const uint8_t parity =
            static_cast<uint8_t>(atom[v].parity ^ (edge.target & 1));
        bool first = true;
        if (edge.rule >= 0) {
          first = rule_seen[edge.rule] == 0;
          rule_seen[edge.rule] = 1;
        }
        AtomState& to = atom[h];
        if (to.index == kUnvisited) {
          if (!discover(h, parity)) return {};
        } else if (to.index >= 0) {
          AtomState& from = atom[v];
          from.low = std::min(from.low, to.index);
          from.flags |= to.parity == parity ? kInternal : kInternal | kOdd;
          if (first) fronts.push_back(RuleFront{next_index, parity});
        } else if (to.index <= kCandidate) {
          candidates[kCandidate - to.index].entered = true;
        }
        continue;
      }
      frames.pop_back();
      const AtomState& done = atom[v];
      if (done.low != done.index) {
        AtomState& parent = atom[frames.back().atom];
        parent.low = std::min(parent.low, done.low);
        parent.flags |= done.flags;
        continue;
      }
      // v roots a component; its flags cover every member. Side 0 takes
      // the parity of the member discovered last: the top of the Tarjan
      // stack, or a later rule front.
      const AtomId last = tarjan_stack.back();
      uint8_t front_parity = atom[last].parity;
      if (!fronts.empty() && fronts.back().stamp > atom[last].index) {
        front_parity = fronts.back().parity;
      }
      while (!fronts.empty() && fronts.back().stamp > done.index) {
        fronts.pop_back();
      }
      const bool candidate = frames.empty() && done.flags == kInternal;
      const int32_t popped =
          candidate ? kCandidate - static_cast<int32_t>(candidates.size())
                    : kPopped;
      if (candidate) {
        candidates.push_back(
            Candidate{members.size(), members.size(), front_parity, false});
      }
      while (true) {
        const AtomId u = tarjan_stack.back();
        tarjan_stack.pop_back();
        atom[u].index = popped;
        if (candidate) members.push_back(u);
        if (u == v) break;
      }
      if (candidate) candidates.back().end = members.size();
    }
  }

  std::vector<TieView> ties;
  for (const Candidate& c : candidates) {
    if (c.entered) continue;
    TieView tie;
    for (size_t i = c.begin; i < c.end; ++i) {
      const AtomId a = members[i];
      (atom[a].parity == c.front_parity ? tie.side0 : tie.side1).push_back(a);
    }
    ties.push_back(std::move(tie));
  }
  return ties;
}

namespace {

// Applies one tie break: K's atoms true, L's atoms false, then close.
void BreakTie(const TieView& tie, ChoicePolicy* policy, CloseState* state,
              Certificate* certificate) {
  const std::vector<AtomId>* k_side;  // true side
  const std::vector<AtomId>* l_side;  // false side
  if (tie.side0.empty() || tie.side1.empty()) {
    // An SCC with no internal negative edges: minimalist choice, everything
    // false (K is the empty side).
    k_side = tie.side0.empty() ? &tie.side0 : &tie.side1;
    l_side = tie.side0.empty() ? &tie.side1 : &tie.side0;
  } else if (policy->Side0True(tie)) {
    k_side = &tie.side0;
    l_side = &tie.side1;
  } else {
    k_side = &tie.side1;
    l_side = &tie.side0;
  }
  std::vector<std::pair<AtomId, bool>> assignments;
  assignments.reserve(k_side->size() + l_side->size());
  for (AtomId a : *k_side) assignments.emplace_back(a, true);
  for (AtomId a : *l_side) assignments.emplace_back(a, false);
  if (certificate != nullptr) {
    CertificateStep step;
    step.kind = CertificateStep::Kind::kTieBreak;
    step.made_true = *k_side;
    step.made_false = *l_side;
    certificate->steps.push_back(std::move(step));
  }
  state->SetAndClose(assignments);
}

// The Section 3 interpreter loop. The stopped() guards matter for
// truncation soundness: after a trip the unfounded-set simulation returns
// {} over a possibly half-propagated state, and breaking a "tie" of that
// state could assign atoms the full run decides differently — so a tripped
// run stops choosing and reports the partially-propagated prefix.
InterpreterResult RunTieBreaking(CloseState& state, TieBreakingMode mode,
                                 ChoicePolicy* policy,
                                 Certificate* certificate,
                                 ExecutionContext* context) {
  InterpreterResult result;

  auto falsify_unfounded = [&state, &result, certificate, context]() {
    if (context != nullptr && context->stopped()) return false;
    const std::vector<AtomId> unfounded = state.LargestUnfoundedSet();
    if (unfounded.empty()) return false;
    ++result.unfounded_rounds;
    std::vector<std::pair<AtomId, bool>> assignments;
    assignments.reserve(unfounded.size());
    for (AtomId a : unfounded) assignments.emplace_back(a, false);
    if (certificate != nullptr) {
      CertificateStep step;
      step.kind = CertificateStep::Kind::kUnfoundedSet;
      step.made_false = unfounded;
      certificate->steps.push_back(std::move(step));
    }
    state.SetAndClose(assignments);
    return true;
  };
  auto break_a_tie = [&state, &result, policy, certificate, context]() {
    if (context != nullptr && context->stopped()) return false;
    const std::vector<TieView> ties = FindBottomTies(state);
    if (ties.empty()) return false;
    const size_t pick = policy->ChooseTie(ties.size());
    TIEBREAK_CHECK_LT(pick, ties.size());
    BreakTie(ties[pick], policy, &state, certificate);
    ++result.ties_broken;
    return true;
  };

  while (true) {
    ++result.iterations;
    if (context != nullptr &&
        !context->Checkpoint("tie_breaking", 1).ok()) {
      break;
    }
    // A total state has no live rule left: no unfounded set, no tie.
    if (state.IsTotal()) break;
    switch (mode) {
      case TieBreakingMode::kPure:
        if (break_a_tie()) continue;
        break;
      case TieBreakingMode::kWellFounded:
        if (falsify_unfounded()) continue;
        if (break_a_tie()) continue;
        break;
      case TieBreakingMode::kTieFirst:
        if (break_a_tie()) continue;
        if (falsify_unfounded()) continue;
        break;
    }
    break;
  }
  result.values = state.values();
  if (context != nullptr && context->stopped()) {
    result.truncation = context->status();
    result.total = false;
  } else {
    result.total = state.IsTotal();
  }
  return result;
}

}  // namespace

InterpreterResult TieBreaking(const Program& program, const Database& database,
                              const GroundGraph& graph, TieBreakingMode mode,
                              ChoicePolicy* policy,
                              Certificate* certificate) {
  return TieBreaking(program, database, graph, mode, InterpreterOptions{},
                     policy, certificate);
}

InterpreterResult TieBreaking(const Program& program, const Database& database,
                              const GroundGraph& graph, TieBreakingMode mode,
                              const InterpreterOptions& options,
                              ChoicePolicy* policy, Certificate* certificate) {
  FirstChoicePolicy default_policy;
  if (policy == nullptr) policy = &default_policy;
  CloseState state(program, database, graph, options.context);
  return RunTieBreaking(state, mode, policy, certificate, options.context);
}

Result<InterpreterResult> TieBreaking(const Program& program,
                                      const Database& database,
                                      TieBreakingMode mode,
                                      ChoicePolicy* policy) {
  Result<GroundingResult> ground = Ground(program, database);
  if (!ground.ok()) return ground.status();
  return TieBreaking(program, database, ground->graph, mode, policy);
}

}  // namespace tiebreak
