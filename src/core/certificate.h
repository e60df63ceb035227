// Certificate verification: an interpreter run recorded as a Certificate
// (core/tie_breaking.h) can be *independently audited*. The verifier replays
// the steps from M0(Δ), checking each step's side conditions from the
// paper's definitions before applying it:
//
//   kUnfoundedSet  every falsified atom is live, and the set is unfounded:
//                  each of its atoms' live supporting rules has a positive
//                  body atom inside the set (the induced G+ subgraph has no
//                  source, Section 2);
//   kTieBreak      the touched atoms are exactly the atom set of a *bottom
//                  tie* of the current live graph, and the true/false split
//                  is one of the two Lemma-1 orientations (all-false when a
//                  side is empty).
//
// After the last step the closure must equal the claimed model. A verified
// certificate is a machine-checkable proof that the reported model really is
// an output of the (nondeterministic) tie-breaking semantics — useful when
// the interpreter runs on an untrusted machine, and as a deep self-test.
#ifndef TIEBREAK_CORE_CERTIFICATE_H_
#define TIEBREAK_CORE_CERTIFICATE_H_

#include <vector>

#include "core/tie_breaking.h"
#include "ground/ground_graph.h"
#include "ground/truth.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {

/// Replays `certificate` and checks every step plus the final model.
/// Returns OK when the certificate proves `claimed_values`; an error status
/// describing the first violation otherwise. The certificate is untrusted
/// input: a step naming an atom id outside the graph, or one atom twice
/// (within a side or on both), is rejected with kInvalidArgument before it
/// is replayed. `mode` decides which step
/// kinds are admissible in which order (pure runs must not contain
/// unfounded-set steps; well-founded runs must not break a tie while a
/// nonempty unfounded set exists).
Status VerifyCertificate(const Program& program, const Database& database,
                         const GroundGraph& graph, TieBreakingMode mode,
                         const Certificate& certificate,
                         const std::vector<Truth>& claimed_values);

}  // namespace tiebreak

#endif  // TIEBREAK_CORE_CERTIFICATE_H_
