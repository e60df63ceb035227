// Tests for run certificates: every interpreter run must produce a
// certificate the independent verifier accepts; tampered certificates (and
// certificates checked against the wrong mode or model) must be rejected
// with a precise reason.
#include <string>
#include <vector>

#include "core/certificate.h"
#include "core/tie_breaking.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

TEST(CertificateTest, MutualNegationRunVerifies) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate certificate;
  const InterpreterResult result =
      TieBreaking(inst.program, inst.database, g.graph,
                  TieBreakingMode::kWellFounded, nullptr, &certificate);
  ASSERT_TRUE(result.total);
  ASSERT_EQ(certificate.steps.size(), 1u);
  EXPECT_EQ(certificate.steps[0].kind, CertificateStep::Kind::kTieBreak);
  EXPECT_TRUE(VerifyCertificate(inst.program, inst.database, g.graph,
                                TieBreakingMode::kWellFounded, certificate,
                                result.values)
                  .ok());
}

TEST(CertificateTest, GuardedLoopRunRecordsUnfoundedStep) {
  Instance inst = ParseInstance("p :- p, not q.\nq :- q, not p.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate certificate;
  const InterpreterResult result =
      TieBreaking(inst.program, inst.database, g.graph,
                  TieBreakingMode::kWellFounded, nullptr, &certificate);
  ASSERT_TRUE(result.total);
  ASSERT_EQ(certificate.steps.size(), 1u);
  EXPECT_EQ(certificate.steps[0].kind,
            CertificateStep::Kind::kUnfoundedSet);
  EXPECT_TRUE(VerifyCertificate(inst.program, inst.database, g.graph,
                                TieBreakingMode::kWellFounded, certificate,
                                result.values)
                  .ok());
}

TEST(CertificateTest, FlippedOrientationStillVerifiesButWrongModelFails) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate certificate;
  const InterpreterResult result =
      TieBreaking(inst.program, inst.database, g.graph,
                  TieBreakingMode::kPure, nullptr, &certificate);
  ASSERT_TRUE(result.total);
  // Flip the orientation: still a valid run of the nondeterministic
  // algorithm — but it derives the OTHER model, so it must fail against the
  // original claim...
  Certificate flipped = certificate;
  std::swap(flipped.steps[0].made_true, flipped.steps[0].made_false);
  Status s = VerifyCertificate(inst.program, inst.database, g.graph,
                               TieBreakingMode::kPure, flipped,
                               result.values);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("does not reproduce"), std::string::npos);
  // ...and succeed against the flipped model.
  std::vector<Truth> other(result.values);
  for (Truth& t : other) {
    t = t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
  }
  EXPECT_TRUE(VerifyCertificate(inst.program, inst.database, g.graph,
                                TieBreakingMode::kPure, flipped, other)
                  .ok());
}

TEST(CertificateTest, FabricatedTieIsRejected) {
  // The three-rule program has no ties; a fabricated tie-break step must be
  // called out.
  Instance inst = ParseInstance(
      "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate fake;
  CertificateStep step;
  step.kind = CertificateStep::Kind::kTieBreak;
  step.made_true = {0};
  step.made_false = {1, 2};
  fake.steps.push_back(step);
  std::vector<Truth> claimed(g.graph.num_atoms(), Truth::kFalse);
  claimed[0] = Truth::kTrue;
  Status s = VerifyCertificate(inst.program, inst.database, g.graph,
                               TieBreakingMode::kPure, fake, claimed);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("does not match any bottom tie"),
            std::string::npos);
}

TEST(CertificateTest, FoundedSetRejectedAsUnfounded) {
  // q is founded through e; claiming {p, q} unfounded must fail.
  Instance inst = ParseInstance("p :- p, not q.\nq :- e, q.\nq :- e.", "e.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate fake;
  CertificateStep step;
  step.kind = CertificateStep::Kind::kUnfoundedSet;
  // Atom ids: discover p and q.
  const PredId p = inst.program.LookupPredicate("p");
  const PredId q = inst.program.LookupPredicate("q");
  const AtomId p_atom = g.graph.atoms().Lookup(p, {});
  const AtomId q_atom = g.graph.atoms().Lookup(q, {});
  ASSERT_GE(p_atom, 0);
  ASSERT_GE(q_atom, 0);
  step.made_false = {p_atom, q_atom};
  fake.steps.push_back(step);
  std::vector<Truth> claimed(g.graph.num_atoms(), Truth::kFalse);
  Status s = VerifyCertificate(inst.program, inst.database, g.graph,
                               TieBreakingMode::kWellFounded, fake, claimed);
  EXPECT_FALSE(s.ok());
}

TEST(CertificateTest, PureRunsMayNotContainUnfoundedSteps) {
  Instance inst = ParseInstance("p :- p.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate certificate;
  CertificateStep step;
  step.kind = CertificateStep::Kind::kUnfoundedSet;
  step.made_false = {0};
  certificate.steps.push_back(step);
  std::vector<Truth> claimed(g.graph.num_atoms(), Truth::kFalse);
  Status s = VerifyCertificate(inst.program, inst.database, g.graph,
                               TieBreakingMode::kPure, certificate, claimed);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("pure runs"), std::string::npos);
}

TEST(CertificateTest, WellFoundedOrderingEnforced) {
  // Program with BOTH a plain unfounded pair and an independent tie: a WFTB
  // certificate that breaks the tie first violates the ordering.
  Instance inst = ParseInstance(
      "a :- b.\nb :- a.\np :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate certificate;
  const InterpreterResult result =
      TieBreaking(inst.program, inst.database, g.graph,
                  TieBreakingMode::kWellFounded, nullptr, &certificate);
  ASSERT_TRUE(result.total);
  ASSERT_GE(certificate.steps.size(), 2u);
  // Genuine certificate passes.
  ASSERT_TRUE(VerifyCertificate(inst.program, inst.database, g.graph,
                                TieBreakingMode::kWellFounded, certificate,
                                result.values)
                  .ok());
  // Reordered (tie first) fails WFTB verification...
  Certificate reordered = certificate;
  std::swap(reordered.steps[0], reordered.steps[1]);
  Status s = VerifyCertificate(inst.program, inst.database, g.graph,
                               TieBreakingMode::kWellFounded, reordered,
                               result.values);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("before breaking a tie"), std::string::npos);
  // ...but is admissible as a kTieFirst run (order-free checking there).
  EXPECT_TRUE(VerifyCertificate(inst.program, inst.database, g.graph,
                                TieBreakingMode::kTieFirst, reordered,
                                result.values)
                  .ok());
}

// Tamperings that name a bad atom id: a duplicate, -1 and num_atoms + 5.
std::vector<std::vector<AtomId>> TamperedSides(const std::vector<AtomId>& side,
                                               int32_t num_atoms) {
  std::vector<std::vector<AtomId>> out;
  std::vector<AtomId> twice = side;
  twice.push_back(side.front());
  out.push_back(twice);
  for (const AtomId bad : {-1, num_atoms + 5}) {
    std::vector<AtomId> outside = side;
    outside.push_back(bad);
    out.push_back(outside);
  }
  return out;
}

TEST(CertificateTest, UnfoundedStepWithBadAtomIdsIsRejected) {
  // {p} is unfounded (p's only rule consumes p), so the honest step
  // verifies; every tampering must be rejected, not abort the replay.
  Instance inst = ParseInstance("p :- p.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate certificate;
  const InterpreterResult result =
      TieBreaking(inst.program, inst.database, g.graph,
                  TieBreakingMode::kWellFounded, nullptr, &certificate);
  ASSERT_EQ(certificate.steps.size(), 1u);
  ASSERT_EQ(certificate.steps[0].kind, CertificateStep::Kind::kUnfoundedSet);
  ASSERT_TRUE(VerifyCertificate(inst.program, inst.database, g.graph,
                                TieBreakingMode::kWellFounded, certificate,
                                result.values)
                  .ok());
  for (const std::vector<AtomId>& made_false :
       TamperedSides(certificate.steps[0].made_false, g.graph.num_atoms())) {
    Certificate tampered = certificate;
    tampered.steps[0].made_false = made_false;
    const Status s =
        VerifyCertificate(inst.program, inst.database, g.graph,
                          TieBreakingMode::kWellFounded, tampered,
                          result.values);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(CertificateTest, TieStepWithBadAtomIdsIsRejected) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  Certificate certificate;
  const InterpreterResult result =
      TieBreaking(inst.program, inst.database, g.graph,
                  TieBreakingMode::kWellFounded, nullptr, &certificate);
  ASSERT_EQ(certificate.steps.size(), 1u);
  const CertificateStep& step = certificate.steps[0];
  ASSERT_EQ(step.kind, CertificateStep::Kind::kTieBreak);
  std::vector<Certificate> tampered;
  for (const std::vector<AtomId>& made_true :
       TamperedSides(step.made_true, g.graph.num_atoms())) {
    tampered.push_back(certificate);
    tampered.back().steps[0].made_true = made_true;
  }
  for (const std::vector<AtomId>& made_false :
       TamperedSides(step.made_false, g.graph.num_atoms())) {
    tampered.push_back(certificate);
    tampered.back().steps[0].made_false = made_false;
  }
  // One atom on both sides.
  tampered.push_back(certificate);
  tampered.back().steps[0].made_false.push_back(step.made_true.front());
  for (const Certificate& c : tampered) {
    const Status s = VerifyCertificate(inst.program, inst.database, g.graph,
                                       TieBreakingMode::kWellFounded, c,
                                       result.values);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  }
}

TEST(CertificateTest, RandomRunsAlwaysVerify) {
  Rng rng(0xCE87);
  for (int round = 0; round < 80; ++round) {
    RandomProgramOptions options;
    options.num_idb = 4;
    options.num_edb = 2;
    options.num_rules = 3 + static_cast<int>(rng.Below(7));
    options.negation_probability = 0.45;
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(&program, 1, 0.5, &rng);
    const GroundingResult g = GroundOrDie(Instance{program, database});
    for (TieBreakingMode mode :
         {TieBreakingMode::kPure, TieBreakingMode::kWellFounded,
          TieBreakingMode::kTieFirst}) {
      RandomChoicePolicy policy(round * 3 + static_cast<int>(mode));
      Certificate certificate;
      const InterpreterResult result = TieBreaking(
          program, database, g.graph, mode, &policy, &certificate);
      const Status s = VerifyCertificate(program, database, g.graph, mode,
                                         certificate, result.values);
      EXPECT_TRUE(s.ok()) << s.ToString() << " round " << round;
    }
  }
}

}  // namespace
}  // namespace tiebreak
