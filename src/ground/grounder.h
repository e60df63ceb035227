// Construction of the ground graph G(Π, Δ).
//
// The paper defines G(Π, Δ) over the whole universe U: every rule with k
// variables instantiated with every k-tuple over U. Ground builds the
// graph that definition leaves after the EDB part of the very first
// close(M, G): rule instances with a false positive EDB literal or a true
// negated EDB literal are never created (close would delete them
// immediately), satisfied EDB literals are dropped from bodies (close
// would delete those resolved atoms), and EDB atoms are not interned as
// nodes. That makes programs like the Theorem 6 machine simulation (whose
// rules carry long succ-chain variable lists) groundable at all. The
// definition itself is kept as a test reference (tests/
// reference_grounder.h), and ground_test.cc checks the two graphs agree
// after the initial close.
//
// Each rule's binding relation — the bindings of its positive EDB
// literals ("generators") against Δ — is one FactSpan of rows over its
// bound variables, from one of four routes chosen by the rule's shape:
//
//  * direct: the rule's only generator lists one or more distinct
//    variables in ascending index order (win(X) :- move(X, Y), not win(Y)
//    is one), so its arguments are exactly the bound variables, and Δ's
//    relation — sorted and duplicate-free — is the binding relation
//    itself, byte for byte and in the engine's order. Its rows are read
//    in place;
//  * engine: every other rule with generators becomes one conjunctive
//    "binding rule" over a derived program (a Program::CopyVocabulary(),
//    which shares the constant table rather than copying it), and the
//    batch is evaluated by the relational engine (columnar relations,
//    compiled/cached join plans, vectorized join kernels — see
//    engine/evaluation.h) through the borrowed-EDB entry point: the Δ
//    arenas those rules read are handed to the engine as FactSpans, no
//    intermediate Database copy, and a caller grounding many times over
//    one Δ lends kept relations through GroundingOptions::edb, so each EDB
//    relation loads and indexes once. The engine runs only when such a
//    rule exists;
//  * fallback: a rule whose bound variables or one of whose generators
//    pass the engine's arity cap (kEngineMaxArity), or every engine-route
//    rule when the engine rejects the batch for any reason but the budget,
//    gets its rows from a tuple-at-a-time backtracking join of its
//    generators against Δ, written into a row buffer in the join's own
//    order. Only the rules themselves decide this: a wide predicate that
//    no generator reads sends nothing to the fallback;
//  * no generator: the rule's binding relation is one zero-column row.
//
// Rows then stream into one emission pipeline whatever their route, and
// the variables a row leaves free (all of them, for a rule with no
// generator) expand over U through an odometer. Instances go straight
// into the CSR graph arenas with zero per-instance heap allocation, and
// the serial graph does not depend on the route's mechanics, only on its
// row order. Emission is block-batched: the substituted atoms of a block
// of instances are hashed ahead and their dedupe slot lines prefetched
// before any intern touches them (the trick of Relation::InsertBatch), and
// with num_threads > 1 row-sharded emission jobs fan out over a thread
// pool into per-worker graph shards that merge with an atom-id remap. The
// pool is created only when the binding rows fill at least two emission
// shards (the one row of a rule with no generator but with variables
// counting as a whole shard); smaller groundings, such as a demand
// request's cone, take the serial path at any thread count.
//
// A unary IDB predicate whose rules have at least num_constants / 8
// binding rows interns through a dense atom table (one AtomId per
// ConstId; see GroundAtomStore::ReserveDense) on the serial graph and the
// merge target, and on each emission shard whose even share of those rows
// also reaches num_constants / 8; the tables are reserved once from the
// pre-counted rows before emission starts. Emission, the merge's remap
// and DeltaAtomMask then index an array where they would probe a hash
// table; interning order, and so the serial graph, is unchanged.
//
// Per-call cost beyond the emitted instances: the universe U is an O(|Δ|)
// scan, computed only when some rule has a variable no positive EDB
// literal binds, so a grounding of range-restricted rules over a small
// cone costs time proportional to the cone plus the program.
#ifndef TIEBREAK_GROUND_GROUNDER_H_
#define TIEBREAK_GROUND_GROUNDER_H_

#include <cstdint>
#include <vector>

#include "ground/ground_graph.h"
#include "lang/database.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared; see util/execution_context.h and engine/evaluation.h.
class ExecutionContext;
class EdbRelations;

/// Grounding knobs.
struct GroundingOptions {
  /// Worker threads for instance emission and the graph's finalization;
  /// the engine evaluation of the engine-route binding rules and the
  /// fallback joins run on the calling thread before emission starts.
  /// Emission parallelizes as row shards of each rule's binding relation;
  /// each worker emits into a private GroundGraph shard with no
  /// synchronization, and the shards merge into the final CSR arenas with
  /// an atom-id remap (GroundGraph::MergeFrom). 1 = the serial reference
  /// (the arenas it produces are bit-identical to pre-parallel grounding;
  /// parallel runs agree on atom sets and rule-instance multisets but may
  /// order them differently), 0 = hardware concurrency. A grounding whose
  /// binding rows fill fewer than two emission shards spawns no pool and
  /// takes the serial path at any count.
  int32_t num_threads = 1;
  /// Record each instance's variable binding in the graph
  /// (GroundGraph::BindingOf). Off by default: no interpreter reads
  /// bindings, and on million-instance graphs the binding arena costs more
  /// memory traffic than the rest of the rule arenas combined. Debug tools
  /// that want `rule_index + binding -> instance` provenance turn it on.
  bool record_bindings = false;
  /// Abort with RESOURCE_EXHAUSTED beyond this many rule instances /
  /// explored bindings (guards |U|^k blowups).
  int64_t max_instances = 10'000'000;
  /// Resource governance for this grounding (not owned; null = none).
  /// Checkpoints fire per emission block (serial) / per budget-flush block
  /// (parallel shards), and the context threads through to the engine
  /// evaluation of the binding program. On a trip, Ground returns the
  /// context's Status (kResourceExhausted / kDeadlineExceeded /
  /// kCancelled); parallel shards abandon cleanly at the merge barrier.
  /// Independent of max_instances — both limits apply.
  ExecutionContext* context = nullptr;
  /// Δ's engine relations kept across groundings, lent to the engine's
  /// evaluation of the engine-route binding rules (not owned; null = load
  /// Δ per call). A grounding whose rules all read Δ directly runs no
  /// engine and never consults it. See EdbRelations in
  /// engine/evaluation.h.
  EdbRelations* edb = nullptr;
};

/// A finalized ground graph.
struct GroundingResult {
  GroundGraph graph;
};

/// Computes U: all constants appearing in `program`'s rules or `database`,
/// ascending. One O(|Δ|) scan; Ground runs it only when it enumerates over
/// U (see the file comment).
std::vector<ConstId> ComputeUniverse(const Program& program,
                                     const Database& database);

/// U as a membership bitmap: entry c is 1 iff constant c is in U; ids at
/// or past its size are outside U. The same O(|Δ|) scan as
/// ComputeUniverse.
std::vector<char> UniverseMask(const Program& program,
                               const Database& database);

/// Builds G(Π, Δ) after its initial close (see the file comment). The
/// program must Validate(). IDB atoms of Δ are always interned (they carry
/// initial truth); EDB atoms never become nodes.
Result<GroundingResult> Ground(const Program& program,
                               const Database& database,
                               const GroundingOptions& options = {});

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_GROUNDER_H_
