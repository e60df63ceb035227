// Tests for program transformations (rename/merge) and instance-level
// call-consistency (per-instance Theorem 1).
#include <map>
#include <string>
#include <vector>

#include "core/exploration.h"
#include "core/stratification.h"
#include "core/structural_totality.h"
#include "engine/evaluation.h"
#include "core/tie_breaking.h"
#include "gtest/gtest.h"
#include "lang/printer.h"
#include "lang/skeleton.h"
#include "lang/transform.h"
#include "reductions/cm_reduction.h"
#include "reference_interpreters.h"
#include "test_util.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

// ---------------------------------------------------------------------------
// RenamePredicates.
// ---------------------------------------------------------------------------

TEST(RenameTest, RenamesAcrossHeadsAndBodies) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).");
  Result<Program> renamed = RenamePredicates(
      inst.program, {{"win", "victory"}, {"move", "edge"}});
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(ProgramToString(*renamed),
            "victory(X) :- edge(X, Y), not victory(Y).\n");
  // Structure is untouched.
  EXPECT_EQ(IsCallConsistent(*renamed), IsCallConsistent(inst.program));
}

TEST(RenameTest, UnmappedNamesKept) {
  Instance inst = ParseInstance("p :- q, not r.");
  Result<Program> renamed = RenamePredicates(inst.program, {{"q", "qq"}});
  ASSERT_TRUE(renamed.ok());
  EXPECT_GE(renamed->LookupPredicate("p"), 0);
  EXPECT_GE(renamed->LookupPredicate("qq"), 0);
  EXPECT_EQ(renamed->LookupPredicate("q"), -1);
}

TEST(RenameTest, CollisionRejected) {
  Instance inst = ParseInstance("p :- q.");
  Result<Program> renamed = RenamePredicates(inst.program, {{"p", "q"}});
  ASSERT_FALSE(renamed.ok());
  EXPECT_EQ(renamed.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// MergePrograms.
// ---------------------------------------------------------------------------

TEST(MergeTest, DisjointProgramsConcatenate) {
  Instance a = ParseInstance("p :- not q.");
  Instance b = ParseInstance("r(X) :- e(X).");
  Result<Program> merged = MergePrograms(a.program, b.program);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rules(), 2);
  EXPECT_GE(merged->LookupPredicate("p"), 0);
  EXPECT_GE(merged->LookupPredicate("r"), 0);
  EXPECT_TRUE(merged->Validate().ok());
}

TEST(MergeTest, SharedPredicatesUnify) {
  Instance a = ParseInstance("p :- q.");
  Instance b = ParseInstance("q :- e.\np :- not e.");
  Result<Program> merged = MergePrograms(a.program, b.program);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rules(), 3);
  // q is IDB in the merge (b gives it a rule).
  EXPECT_FALSE(merged->IsEdb(merged->LookupPredicate("q")));
  // Constants from both sides resolve by name.
  Instance c = ParseInstance("s(a) :- t(a).");
  Instance d = ParseInstance("t(a).");
  Result<Program> merged2 = MergePrograms(c.program, d.program);
  ASSERT_TRUE(merged2.ok());
  const Rule& fact = merged2->rule(1);
  EXPECT_EQ(merged2->constant_name(fact.head.args[0].index), "a");
}

TEST(MergeTest, ArityConflictRejected) {
  Instance a = ParseInstance("p(X) :- e(X).");
  Instance b = ParseInstance("p :- q.");
  Result<Program> merged = MergePrograms(a.program, b.program);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(MergeTest, MergePreservesSkeletonUnion) {
  Instance a = ParseInstance("p :- not q.\nq :- not p.");
  Instance b = ParseInstance("r :- p, not q.");
  Result<Program> merged = MergePrograms(a.program, b.program);
  ASSERT_TRUE(merged.ok());
  const Skeleton sk = SkeletonOf(*merged);
  EXPECT_EQ(sk.size(), 3u);
}

// ---------------------------------------------------------------------------
// MagicSetTransform.
// ---------------------------------------------------------------------------

TEST(MagicSetTest, WinMoveBoundQueryShape) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).");
  const PredId win = inst.program.LookupPredicate("win");
  const PredId move = inst.program.LookupPredicate("move");
  Result<DemandTransform> t = MagicSetTransform(inst.program, win, "b");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // Original predicates keep their ids and names in both programs.
  EXPECT_EQ(t->demand.predicate_name(win), "win");
  EXPECT_EQ(t->guarded.predicate_name(move), "move");
  // win gets a unary magic predicate; the EDB relation move does not.
  ASSERT_GE(t->magic[win], 0);
  EXPECT_EQ(t->magic[move], -1);
  EXPECT_EQ(t->demand.predicate(t->magic[win]).arity, 1);
  EXPECT_EQ(t->demand.predicate_name(t->magic[win]),
            t->guarded.predicate_name(t->magic[win]));
  EXPECT_EQ(t->adornments[win], "b");
  EXPECT_EQ(t->seed_positions, (std::vector<int32_t>{0}));
  EXPECT_EQ(t->edb_used[move], 1);
  // The demand program is stratified and safe by construction: the seed
  // rule plus one magic rule per IDB body occurrence (demand flows through
  // the NEGATED win occurrence — required for well-founded agreement).
  EXPECT_TRUE(IsStratified(t->demand));
  EXPECT_TRUE(CheckSafety(t->demand).ok());
  EXPECT_EQ(t->demand.num_rules(), 2);
  // Every guarded rule leads with its positive magic guard.
  ASSERT_EQ(t->guarded.num_rules(), 1);
  const Rule& guarded = t->guarded.rule(0);
  ASSERT_EQ(guarded.body.size(), 3u);
  EXPECT_TRUE(guarded.body[0].positive);
  EXPECT_EQ(guarded.body[0].atom.predicate, t->magic[win]);
  EXPECT_TRUE(t->demand.Validate().ok());
  EXPECT_TRUE(t->guarded.Validate().ok());
}

TEST(MagicSetTest, FreeQueryHasZeroAryMagic) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).");
  const PredId win = inst.program.LookupPredicate("win");
  Result<DemandTransform> t = MagicSetTransform(inst.program, win, "f");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->demand.predicate(t->magic[win]).arity, 0);
  EXPECT_TRUE(t->seed_positions.empty());
  EXPECT_EQ(t->demand.predicate(t->seed).arity, 0);
  EXPECT_TRUE(IsStratified(t->demand));
  EXPECT_TRUE(CheckSafety(t->demand).ok());
}

TEST(MagicSetTest, AdornmentsMergeAcrossOccurrences) {
  // Via q, t is called as t(a, X) — adornment bf — both directly and
  // through its own recursion (head X bound, e(X, Y) binds Y). One merged
  // adornment per predicate: bf.
  Instance consistent = ParseInstance(
      "q(X) :- t(a, X).\n"
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).");
  const PredId q1 = consistent.program.LookupPredicate("q");
  const PredId t1 = consistent.program.LookupPredicate("t");
  Result<DemandTransform> first = MagicSetTransform(consistent.program, q1, "f");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->adornments[t1], "bf");
  EXPECT_EQ(first->demand.predicate(first->magic[t1]).arity, 1);

  // Adding a second call site t(X, b) with the first position free forces
  // the merge to ff (per-position AND over all occurrences).
  Instance mixed = ParseInstance(
      "q(X) :- t(a, X).\nq(X) :- r(X).\nr(X) :- t(X, b).\n"
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).");
  const PredId q2 = mixed.program.LookupPredicate("q");
  const PredId t2 = mixed.program.LookupPredicate("t");
  Result<DemandTransform> merged = MagicSetTransform(mixed.program, q2, "f");
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->adornments[t2], "ff");
  EXPECT_EQ(merged->demand.predicate(merged->magic[t2]).arity, 0);
}

TEST(MagicSetTest, UnreachableRulesDropped) {
  Instance inst = ParseInstance(
      "p(X) :- e(X).\n"
      "island(X) :- e(X), not p(X).");
  const PredId p = inst.program.LookupPredicate("p");
  const PredId island = inst.program.LookupPredicate("island");
  Result<DemandTransform> t = MagicSetTransform(inst.program, p, "b");
  ASSERT_TRUE(t.ok());
  // island does not support p: no magic predicate, no guarded rule.
  EXPECT_EQ(t->magic[island], -1);
  EXPECT_TRUE(t->adornments[island].empty());
  EXPECT_EQ(t->guarded.num_rules(), 1);
}

TEST(MagicSetTest, DemandFlowsThroughNegatedIdb) {
  Instance inst = ParseInstance(
      "p(X) :- e(X), not q(X).\nq(X) :- f(X).");
  const PredId p = inst.program.LookupPredicate("p");
  const PredId q = inst.program.LookupPredicate("q");
  Result<DemandTransform> t = MagicSetTransform(inst.program, p, "b");
  ASSERT_TRUE(t.ok());
  // The negated q occurrence still generates demand — dropping it would
  // leave q's cone unevaluated and mis-read undefined atoms as false.
  EXPECT_GE(t->magic[q], 0);
  EXPECT_EQ(t->adornments[q], "b");
  EXPECT_EQ(t->guarded.num_rules(), 2);
}

TEST(MagicSetTest, InvalidInputsRejected) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).");
  const PredId win = inst.program.LookupPredicate("win");
  const PredId move = inst.program.LookupPredicate("move");
  // EDB query predicate.
  EXPECT_EQ(MagicSetTransform(inst.program, move, "bb").status().code(),
            StatusCode::kInvalidArgument);
  // Wrong adornment length and alphabet.
  EXPECT_EQ(MagicSetTransform(inst.program, win, "bb").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MagicSetTransform(inst.program, win, "x").status().code(),
            StatusCode::kInvalidArgument);
  // Out-of-range predicate.
  EXPECT_EQ(MagicSetTransform(inst.program, 99, "b").status().code(),
            StatusCode::kInvalidArgument);
}

// Every derived program starts from CopyVocabulary(): it shares the source's
// constant table, so ConstIds agree, and interning into it leaves the source
// untouched.
TEST(DerivedProgramTest, DerivedProgramsKeepConstIds) {
  Instance inst = ParseInstance(
      "win(X) :- move(X, Y), not win(Y), not banned(b).\nwin(a) :- base.",
      "move(a, b). move(b, c). move(c, d).");
  const Program& source = inst.program;
  const int32_t constants = source.num_constants();
  const PredId win = source.LookupPredicate("win");
  Result<DemandTransform> transform = MagicSetTransform(source, win, "b");
  ASSERT_TRUE(transform.ok());
  Result<Program> merged =
      MergePrograms(source, ParseInstance("other(X) :- move(X, e).").program);
  ASSERT_TRUE(merged.ok());
  const std::vector<Program> derived = {
      transform->demand, transform->guarded, *merged,
      ReduceProgram(source).program, UniformTotalityTransform(source)};
  for (const Program& program : derived) {
    ASSERT_GE(program.num_constants(), constants);
    for (ConstId c = 0; c < constants; ++c) {
      EXPECT_EQ(program.constant_name(c), source.constant_name(c));
      EXPECT_EQ(program.LookupConstant(source.constant_name(c)), c);
    }
    Program copy = program;
    EXPECT_EQ(copy.InternConstant("brand_new"), program.num_constants());
    EXPECT_EQ(source.num_constants(), constants);
    EXPECT_EQ(source.LookupConstant("brand_new"), -1);
  }
  // The merged program interned b's new constant "e" after a's.
  EXPECT_EQ(merged->LookupConstant("e"), constants);
}

// ---------------------------------------------------------------------------
// Instance-level call-consistency (per-instance Theorem 1).
// ---------------------------------------------------------------------------

TEST(GroundCallConsistencyTest, EvenBoardsAreGroundConsistent) {
  Program program = WinMoveProgram();
  Database even_board = *CycleDatabase(&program, "move", 4);
  const GroundingResult g = GroundOrDie(Instance{program, even_board});
  // The program is NOT call-consistent, but this instance is.
  EXPECT_FALSE(IsCallConsistent(program));
  EXPECT_TRUE(reference::IsGroundCallConsistent(g.graph));
  // Per-instance Theorem 1: every choice totals.
  const auto runs = ExploreAllChoices(program, even_board, g.graph,
                                      TieBreakingMode::kWellFounded);
  for (const auto& run : runs) {
    EXPECT_TRUE(run.result.total);
  }
}

TEST(GroundCallConsistencyTest, OddBoardsAreNot) {
  Program program = WinMoveProgram();
  Database odd_board = *CycleDatabase(&program, "move", 5);
  const GroundingResult g = GroundOrDie(Instance{program, odd_board});
  EXPECT_FALSE(reference::IsGroundCallConsistent(g.graph));
}

TEST(GroundCallConsistencyTest, LocallyStratifiedImpliesGroundConsistent) {
  Program program = WinMoveProgram();
  Database chain = *ChainDatabase(&program, "move", 6);
  const GroundingResult g = GroundOrDie(Instance{program, chain});
  EXPECT_TRUE(reference::IsLocallyStratified(program, chain, g.graph));
  EXPECT_TRUE(reference::IsGroundCallConsistent(g.graph));
}

}  // namespace
}  // namespace tiebreak
