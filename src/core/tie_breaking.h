// The tie-breaking interpreters of Section 3.
//
// Pure tie-breaking:
//   close; while some bottom SCC of the live graph is a tie, break it
//   (one side's atoms true, the other's false, per Lemma 1) and close.
//
// Well-founded tie-breaking:
//   close; loop { if the largest unfounded set is nonempty, falsify it and
//   close; else if a bottom tie exists, break it and close; else stop }.
//
// Implementation notes.
//  * When one side of a tie partition is empty (an SCC with no internal
//    negative edges), the nonempty side is forced to be L (all false),
//    matching the paper's minimalist remark; the policy is not consulted.
//    This is also what makes both interpreters compute the perfect model on
//    locally stratified programs.
//  * The displayed WFTB pseudo-code in the paper sets K twice (an obvious
//    typo); we implement K -> true, L -> false as in the pure version.
#ifndef TIEBREAK_CORE_TIE_BREAKING_H_
#define TIEBREAK_CORE_TIE_BREAKING_H_

#include "core/choice_policy.h"
#include "core/interpreter_options.h"
#include "core/interpreter_result.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "lang/database.h"
#include "lang/program.h"

namespace tiebreak {

/// Which variant of Section 3's interpreter to run. kTieFirst is *not* in
/// the paper: it is the ablation of the paper's ordering decision — it
/// prefers breaking ties over falsifying unfounded sets. It still computes
/// consistent fixpoints when total (Lemma 2's argument is order-agnostic)
/// but loses Lemma 3's stability guarantee, which is exactly why the paper
/// runs the unfounded-set step first (see bench_ablation).
enum class TieBreakingMode {
  kPure,
  kWellFounded,
  kTieFirst,
};

/// One audit-trail step of an interpreter run (see core/certificate.h for
/// the verifier). Atoms are listed in the order they were assigned.
struct CertificateStep {
  enum class Kind {
    kUnfoundedSet,  ///< `made_false` was falsified as an unfounded set
    kTieBreak,      ///< a bottom tie was broken: K = made_true, L = made_false
  };
  Kind kind = Kind::kUnfoundedSet;
  std::vector<AtomId> made_true;
  std::vector<AtomId> made_false;
};

/// The full audit trail of one run: replaying the steps (with close() after
/// each) from M0(Δ) reproduces the reported model.
struct Certificate {
  std::vector<CertificateStep> steps;
};

/// Runs a tie-breaking interpreter on a grounded instance. `policy` resolves
/// the nondeterministic choices; pass nullptr for the deterministic default
/// (first tie, side0 true). When `certificate` is non-null the audit trail
/// of the run is recorded into it.
InterpreterResult TieBreaking(const Program& program, const Database& database,
                              const GroundGraph& graph, TieBreakingMode mode,
                              ChoicePolicy* policy = nullptr,
                              Certificate* certificate = nullptr);

/// Options overload. `options.num_threads` changes nothing here: the run
/// always closes with the serial CloseState (a wave-parallel close cost more
/// than it saved on 4 cores; docs/benchmarks.md has the figures), so every
/// thread count reproduces the same model for the same policy. A non-null
/// context checkpoints once per interpreter round (tag "tie_breaking") on
/// top of the close/unfounded checkpoints; after a trip no further ties are
/// broken, so a truncated run is a partially-propagated prefix of the full
/// run's step sequence and every decided atom agrees with the full model
/// under the same policy.
InterpreterResult TieBreaking(const Program& program, const Database& database,
                              const GroundGraph& graph, TieBreakingMode mode,
                              const InterpreterOptions& options,
                              ChoicePolicy* policy = nullptr,
                              Certificate* certificate = nullptr);

/// The bottom ties of `state`'s live graph, atoms split by Lemma-1 side.
/// Exposed for certificate verification and diagnostics. One Tarjan pass
/// directly over the ground graph's CSR spans restricted to the live
/// subgraph — no per-round graph materialization — yields the components
/// and each node's DFS-tree sign parity; the condensation and one Lemma-1
/// verification sweep per bottom component follow. Tie order and side
/// orientation are identical to the historical materialized-live-graph
/// implementation (see ground/ground_scc.h for why).
std::vector<TieView> FindBottomTies(const CloseState& state);

/// Convenience overload: grounds (reduced mode) and interprets.
Result<InterpreterResult> TieBreaking(const Program& program,
                                      const Database& database,
                                      TieBreakingMode mode,
                                      ChoicePolicy* policy = nullptr);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_TIE_BREAKING_H_
