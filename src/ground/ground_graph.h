// The ground graph G(Π, Δ) of Section 2: a bipartite directed graph with
// predicate nodes (ground atoms) and rule nodes (rule instantiations),
// positive edges (rule -> its head; positive body atom -> rule) and negative
// edges (negated body atom -> rule).
//
// Representation notes. Everything is flat, mirroring engine/relation.h:
//
//  * GroundAtomStore interns (predicate, tuple) pairs into one contiguous
//    ConstId argument arena (per-atom offset + predicate id — no per-atom
//    heap Tuple), deduplicated by per-predicate open-addressing tables
//    whose 64-bit keys are the packed tuple itself for arity ≤ 2 (ConstIds
//    are nonnegative 31-bit values, so one or two pack injectively; key
//    equality then *is* tuple equality and candidate verification is
//    skipped) and an FNV hash beyond. A unary predicate may also get a
//    dense table, one AtomId per ConstId: a unary predicate has one
//    predicate node per constant of U, so its atoms intern and look up by
//    one array index instead of a hash probe. The grounder reserves it
//    for the unary IDB predicates its binding rows fill (see grounder.h);
//    interning order, and so every arena, does not depend on it.
//
//  * Rule nodes live in CSR arenas: one contiguous body-atom array holding
//    each instance's positive atoms followed by its negative atoms, with a
//    per-rule offset and positive/negative split point, plus flat head /
//    rule-index / binding arrays. No per-instance vectors exist; accessors
//    hand out Span views into the arenas.
//
//  * Finalize() builds the inverse indexes (consumers/supporters per atom)
//    as three CSR adjacency structures in one counting pass each: count
//    per-atom degrees, prefix-sum into offsets, then scatter the rule ids.
//
// Every algorithm of the paper reads the graph through these spans; no
// interpreter materializes a SignedDigraph of it. The tie pass
// (core/tie_breaking.h, FindBottomTies) sweeps the rule arenas into its own
// compact edge list over the live atoms.
#ifndef TIEBREAK_GROUND_GROUND_GRAPH_H_
#define TIEBREAK_GROUND_GROUND_GRAPH_H_

#include <cstdint>
#include <vector>

#include "lang/database.h"
#include "lang/symbols.h"
#include "util/logging.h"
#include "util/span.h"
#include "util/status.h"

namespace tiebreak {

// Forward-declared (util/thread_pool.h): Finalize optionally fans its
// three index builds out over a pool.
class ThreadPool;

/// Dense id of a ground atom within one GroundGraph.
using AtomId = int32_t;

/// Non-owning view of consecutive AtomIds / rule ids / ConstIds (all are
/// int32). Valid until the owning graph structure mutates.
using IdSpan = Span<int32_t>;

/// Interns (predicate, argument tuple) pairs as dense AtomIds. Storage is
/// one flat argument arena plus per-predicate dedupe tables: an
/// open-addressing hash table, and for a predicate given one by
/// ReserveDense, a dense AtomId array indexed by ConstId that holds its
/// unary atoms over [0, range). Every other atom of such a predicate
/// (another arity, a constant at or past the range) stays on the hash
/// table. Which table holds an atom changes no id: ids are assigned in
/// intern order either way. See the file comment.
class GroundAtomStore {
 public:
  /// Returns the id of the ground atom whose arguments are the `arity`
  /// consecutive ids at `args`, interning it if new.
  AtomId Intern(PredId predicate, const ConstId* args, int32_t arity);
  AtomId Intern(PredId predicate, const Tuple& tuple) {
    return Intern(predicate, tuple.data(),
                  static_cast<int32_t>(tuple.size()));
  }

  /// The dedupe key of an argument tuple, precomputable ahead of the
  /// intern that consumes it. Batch emitters hash a block of atoms with
  /// this, PrefetchIntern each slot line, then InternHashed the block —
  /// the same pipeline-ahead trick as Relation::InsertBatch, hiding the
  /// dedupe-table latency that dominates million-atom emission.
  uint64_t InternKey(const ConstId* args, int32_t arity) const {
    return KeyOf(args, arity);
  }

  /// Prefetches the dedupe line `key` maps to in `predicate`'s tables
  /// (`key` must come from InternKey): the dense entry when the key is a
  /// constant inside the dense range (a unary atom's key is its constant),
  /// the hash slot otherwise. Advisory only; safe on predicates without a
  /// table yet.
  void PrefetchIntern(PredId predicate, uint64_t key) const {
    if (predicate < static_cast<PredId>(tables_.size())) {
      const PredTable& table = tables_[predicate];
      if (key < table.dense.size()) {
        __builtin_prefetch(&table.dense[key]);
      } else if (!table.slots.empty()) {
        __builtin_prefetch(
            &table.slots[MixSlot(key) & (table.slots.size() - 1)]);
      }
    }
  }

  /// Intern() with a precomputed key (`key` must equal
  /// InternKey(args, arity)) — the consuming half of the batch pipeline.
  AtomId InternHashed(PredId predicate, const ConstId* args, int32_t arity,
                      uint64_t key);

  /// Returns the id or -1 when the atom was never interned.
  AtomId Lookup(PredId predicate, const ConstId* args, int32_t arity) const;
  AtomId Lookup(PredId predicate, const Tuple& tuple) const {
    return Lookup(predicate, tuple.data(),
                  static_cast<int32_t>(tuple.size()));
  }

  /// Predicate of an interned atom.
  PredId PredicateOf(AtomId atom) const {
    CheckAtom(atom);
    return pred_[atom];
  }

  /// Number of arguments of an interned atom.
  int32_t ArityOf(AtomId atom) const {
    CheckAtom(atom);
    return static_cast<int32_t>(offset_[atom + 1] - offset_[atom]);
  }

  /// The atom's arguments as a view into the flat arena (valid until the
  /// next Intern).
  IdSpan ArgsOf(AtomId atom) const {
    CheckAtom(atom);
    return IdSpan(args_.data() + offset_[atom],
                  static_cast<size_t>(offset_[atom + 1] - offset_[atom]));
  }

  /// Materializes the atom's arguments as an owned Tuple (convenience;
  /// allocates — hot paths use ArgsOf).
  Tuple TupleOf(AtomId atom) const {
    const IdSpan args = ArgsOf(atom);
    return Tuple(args.begin(), args.end());
  }

  /// Number of interned atoms.
  int32_t size() const { return static_cast<int32_t>(pred_.size()); }

  /// Builds the per-predicate atom index consumed by AtomsOfPredicate: one
  /// counting pass over the per-atom predicate array, a prefix sum, and a
  /// scatter — atom ids land ascending within each predicate's span.
  /// GroundGraph::Finalize calls this; a store mutated afterwards must be
  /// re-indexed before AtomsOfPredicate is used again.
  void BuildPredicateIndex();

  /// True once BuildPredicateIndex has run and no atom was interned since.
  bool has_predicate_index() const {
    return by_pred_atom_count_ == static_cast<int64_t>(pred_.size());
  }

  /// The ids of every atom of `predicate`, ascending — the point-query scan
  /// range that replaces testing PredicateOf(a) across the whole store.
  /// Requires has_predicate_index(); predicates beyond the indexed range
  /// (possible when the shaping program declared more predicates than were
  /// ever interned) get an empty span.
  IdSpan AtomsOfPredicate(PredId predicate) const {
    TIEBREAK_CHECK(has_predicate_index());
    TIEBREAK_CHECK_GE(predicate, 0);
    if (predicate + 1 >= static_cast<PredId>(by_pred_offset_.size())) {
      return IdSpan(nullptr, 0);
    }
    return IdSpan(by_pred_atoms_.data() + by_pred_offset_[predicate],
                  static_cast<size_t>(by_pred_offset_[predicate + 1] -
                                      by_pred_offset_[predicate]));
  }

  /// Total argument-arena entries across all atoms (for pre-sizing a merge
  /// target's Reserve).
  int64_t num_args() const { return offset_.back(); }

  /// Pre-sizes the arenas for `num_atoms` atoms carrying `num_args` total
  /// arguments (advisory).
  void Reserve(int64_t num_atoms, int64_t num_args);

  /// Gives `predicate` a dense table for its unary atoms over constants
  /// in [0, range): one AtomId per constant, -1 = not interned. Those
  /// atoms then intern and look up by one array index; unary atoms the
  /// hash table already holds move over with their ids. A range no larger
  /// than the current one changes nothing. The caller sizes `range` from
  /// its own input (the grounder: the program's constant count).
  void ReserveDense(PredId predicate, int32_t range);

  /// Size of `predicate`'s dense table (0 = none).
  int32_t dense_range(PredId predicate) const {
    TIEBREAK_CHECK_GE(predicate, 0);
    if (predicate >= static_cast<PredId>(tables_.size())) return 0;
    return static_cast<int32_t>(tables_[predicate].dense.size());
  }

  /// Storage dump views (src/storage/): the per-atom predicate array, the
  /// argument-arena offsets (size()+1 entries), and the flat argument
  /// arena itself. Valid until the next Intern.
  Span<PredId> atom_predicates() const {
    return Span<PredId>(pred_.data(), pred_.size());
  }
  /// Per-atom argument offsets; see atom_predicates().
  Span<int64_t> arg_offsets() const {
    return Span<int64_t>(offset_.data(), offset_.size());
  }
  /// The flat argument arena; see atom_predicates().
  Span<ConstId> arg_arena() const {
    return Span<ConstId>(args_.data(), args_.size());
  }

  /// Storage restore path: rebuilds a store from arenas read off disk,
  /// treating them as untrusted. Validates shape (offsets start at 0,
  /// monotone, ending exactly at the arena size; one offset per atom plus
  /// one), every PredId in [0, num_predicates) and every ConstId in
  /// [0, num_constants), then re-interns the atoms in id order — which
  /// rebuilds the hash tables as the original interning did and detects
  /// duplicate atoms (kDataLoss) as a side effect. The returned store is
  /// bit-identical, arena for arena, to the one that was dumped; it has no
  /// dense table, which changes no id or lookup.
  static Result<GroundAtomStore> FromArenas(Span<PredId> preds,
                                            Span<int64_t> offsets,
                                            Span<ConstId> args,
                                            int32_t num_predicates,
                                            int32_t num_constants);

 private:
  // One open-addressing slot: the 64-bit key packed next to the atom it
  // names. atom < 0 = empty (key is then meaningless).
  struct Slot {
    uint64_t key = 0;
    AtomId atom = -1;
  };
  // Per-predicate dedupe tables: the hash table (power-of-two capacity,
  // linear probing, load factor ≤ 1/2) and the dense table of unary atoms
  // (empty unless ReserveDense ran).
  struct PredTable {
    std::vector<Slot> slots;
    int32_t used = 0;
    std::vector<AtomId> dense;
  };

  void CheckAtom(AtomId atom) const {
    TIEBREAK_CHECK_GE(atom, 0);
    TIEBREAK_CHECK_LT(atom, size());
  }
  // Packed tuple for arity ≤ 2 (injective), FNV-1a hash beyond.
  static uint64_t KeyOf(const ConstId* args, int32_t arity);
  // True when key equality alone proves tuple equality (within one arity).
  static bool ExactKeys(int32_t arity) { return arity <= 2; }
  // Slot placement: avalanche the high word, fold the low word in at a
  // small odd stride so sequentially increasing packed keys (the grounder
  // interns sorted bindings) probe at a hardware-prefetchable stride.
  static uint64_t MixSlot(uint64_t x) {
    uint64_t high = (x >> 32) + 0x9E3779B97F4A7C15ULL;
    high = (high ^ (high >> 30)) * 0xBF58476D1CE4E5B9ULL;
    high = (high ^ (high >> 27)) * 0x94D049BB133111EBULL;
    return (high ^ (high >> 31)) + (x & 0xFFFFFFFFULL) * 431;
  }
  bool AtomEquals(AtomId atom, const ConstId* args, int32_t arity) const {
    if (offset_[atom + 1] - offset_[atom] != arity) return false;
    const ConstId* stored = args_.data() + offset_[atom];
    for (int32_t i = 0; i < arity; ++i) {
      if (stored[i] != args[i]) return false;
    }
    return true;
  }
  // True when (args, arity) is a unary atom over a constant inside
  // `table`'s dense range; its entry is then table.dense[args[0]].
  static bool InDenseRange(const PredTable& table, const ConstId* args,
                           int32_t arity) {
    return arity == 1 && static_cast<uint32_t>(args[0]) < table.dense.size();
  }
  // Appends a new atom to the arenas and returns its id.
  AtomId Append(PredId predicate, const ConstId* args, int32_t arity) {
    const AtomId id = size();
    pred_.push_back(predicate);
    args_.insert(args_.end(), args, args + arity);
    offset_.push_back(static_cast<int64_t>(args_.size()));
    return id;
  }
  // Re-places `table`'s live slots into a fresh hash table of `capacity`
  // slots, handing each slot that names a unary atom inside the dense
  // range to the dense table instead.
  void Rehash(PredTable* table, size_t capacity) const;

  std::vector<PredId> pred_;        // per atom
  std::vector<int64_t> offset_{0};  // per atom + 1: argument arena offsets
  std::vector<ConstId> args_;     // flat argument arena
  std::vector<PredTable> tables_; // per predicate, grown on demand

  // Per-predicate atom index (BuildPredicateIndex): by_pred_atoms_ holds
  // every atom id grouped by predicate, by_pred_offset_[p, p+1) bounds
  // predicate p's group. by_pred_atom_count_ records the store size the
  // index was built at; a mismatch means the index is stale.
  std::vector<int64_t> by_pred_offset_;
  std::vector<AtomId> by_pred_atoms_;
  int64_t by_pred_atom_count_ = -1;
};

/// One rule node: the instantiation of `rule_index` under `binding` (the
/// constant chosen for each rule variable). EDB-resolved body literals may
/// have been dropped by the reduced grounder; the remaining body atoms are
/// stored by sign. Duplicate occurrences are preserved (parallel edges).
/// This is the *builder input* type of AddRuleInstance — the graph stores
/// the data in CSR arenas, not as RuleInstance objects; hot emitters use
/// AppendRule and skip the vectors entirely.
struct RuleInstance {
  int32_t rule_index = 0;
  AtomId head = 0;
  std::vector<AtomId> positive_body;
  std::vector<AtomId> negative_body;
  Tuple binding;
};

/// G(Π, Δ) plus the inverse indexes used by close() and the interpreters.
/// All storage is CSR arenas; see the file comment.
class GroundGraph {
 public:
  /// The graph's atom store (atoms are interned through it during build).
  GroundAtomStore& atoms() { return atoms_; }
  const GroundAtomStore& atoms() const { return atoms_; }

  /// Appends a rule node from borrowed arrays (no allocation beyond arena
  /// growth): `num_pos` positive body atoms at `pos`, `num_neg` negative
  /// body atoms at `neg`, `num_binding` binding constants at `binding`
  /// (may be null/0 for propositional instances). Must precede Finalize().
  void AppendRule(int32_t rule_index, AtomId head, const AtomId* pos,
                  int32_t num_pos, const AtomId* neg, int32_t num_neg,
                  const ConstId* binding, int32_t num_binding);

  /// Convenience wrapper over AppendRule for callers holding a
  /// RuleInstance.
  void AddRuleInstance(const RuleInstance& instance) {
    AppendRule(instance.rule_index, instance.head,
               instance.positive_body.data(),
               static_cast<int32_t>(instance.positive_body.size()),
               instance.negative_body.data(),
               static_cast<int32_t>(instance.negative_body.size()),
               instance.binding.data(),
               static_cast<int32_t>(instance.binding.size()));
  }

  /// Absorbs another (unfinalized) graph built over the same program and
  /// constant table: every shard atom is interned into this graph's store
  /// (deduplicating against atoms already present; an array index for a
  /// predicate with a dense table) to build a shard-local → global AtomId
  /// remap, then the shard's rule instances are appended
  /// wholesale with their head/body ids rewritten through the remap and
  /// their CSR offsets shifted by this graph's arena sizes. This is the
  /// merge half of parallel grounding's shard-and-merge: workers emit into
  /// private GroundGraph shards with no synchronization at all, and the
  /// coordinating thread folds the shards in afterwards. Rule-instance
  /// multiplicity is preserved (the result holds the concatenation).
  void MergeFrom(const GroundGraph& shard);

  /// Builds the CSR consumer/supporter indexes (one counting pass each).
  /// Call once, after all instances and atoms are in. The three inverse
  /// indexes (supporters, positive/negative consumers) touch disjoint
  /// arrays, so a non-null `pool` with more than one lane builds them as
  /// three concurrent tasks (the shard-aware finalize the parallel
  /// grounder drives); serially the result is identical.
  void Finalize(ThreadPool* pool = nullptr);

  int32_t num_atoms() const { return atoms_.size(); }
  int32_t num_rules() const { return static_cast<int32_t>(head_.size()); }
  bool finalized() const { return finalized_; }

  /// Index of the program rule this instance instantiates.
  int32_t RuleIndexOf(int32_t r) const {
    CheckRule(r);
    return rule_index_[r];
  }
  /// The instance's head atom.
  AtomId HeadOf(int32_t r) const {
    CheckRule(r);
    return head_[r];
  }
  /// The instance's positive body atoms (view into the CSR arena).
  IdSpan PositiveBody(int32_t r) const {
    CheckRule(r);
    return IdSpan(body_.data() + body_offset_[r],
                  static_cast<size_t>(pos_end_[r] - body_offset_[r]));
  }
  /// The instance's negative body atoms.
  IdSpan NegativeBody(int32_t r) const {
    CheckRule(r);
    return IdSpan(body_.data() + pos_end_[r],
                  static_cast<size_t>(body_offset_[r + 1] - pos_end_[r]));
  }
  /// Total body atoms (positive + negative) of the instance.
  int32_t BodySize(int32_t r) const {
    CheckRule(r);
    return static_cast<int32_t>(body_offset_[r + 1] - body_offset_[r]);
  }
  /// The constants substituted for the rule's variables. Empty unless the
  /// builder recorded a binding (the grounder does so only under
  /// GroundingOptions::record_bindings).
  IdSpan BindingOf(int32_t r) const {
    CheckRule(r);
    return IdSpan(binding_.data() + binding_offset_[r],
                  static_cast<size_t>(binding_offset_[r + 1] -
                                      binding_offset_[r]));
  }
  /// Rule nodes with a positive body edge from `atom`.
  IdSpan PositiveConsumers(AtomId atom) const {
    CheckFinalizedAtom(atom);
    return IdSpan(pos_consumers_.data() + pos_offset_[atom],
                  static_cast<size_t>(pos_offset_[atom + 1] -
                                      pos_offset_[atom]));
  }
  /// Rule nodes with a negative body edge from `atom`.
  IdSpan NegativeConsumers(AtomId atom) const {
    CheckFinalizedAtom(atom);
    return IdSpan(neg_consumers_.data() + neg_offset_[atom],
                  static_cast<size_t>(neg_offset_[atom + 1] -
                                      neg_offset_[atom]));
  }
  /// Rule nodes whose head is `atom`.
  IdSpan Supporters(AtomId atom) const {
    CheckFinalizedAtom(atom);
    return IdSpan(supporters_.data() + sup_offset_[atom],
                  static_cast<size_t>(sup_offset_[atom + 1] -
                                      sup_offset_[atom]));
  }

  /// Total number of edges (head edges + body occurrences).
  int64_t num_edges() const {
    return static_cast<int64_t>(body_.size()) + num_rules();
  }

  /// Pre-sizes the rule arenas for `rules` instances carrying `body_atoms`
  /// total body occurrences (advisory).
  void ReserveRules(int64_t rules, int64_t body_atoms);

  /// Storage dump views (src/storage/) over the rule arenas, in the same
  /// layout FromArenas consumes: per-rule program-rule indexes, heads and
  /// positive-split points, the body offsets (num_rules()+1 entries), the
  /// flat body arena, and the binding offsets/arena. Valid until the next
  /// AppendRule/MergeFrom.
  Span<int32_t> rule_indices() const {
    return Span<int32_t>(rule_index_.data(), rule_index_.size());
  }
  /// Per-rule head atoms; see rule_indices().
  Span<AtomId> heads() const {
    return Span<AtomId>(head_.data(), head_.size());
  }
  /// Per-rule positive-body end offsets; see rule_indices().
  Span<int64_t> pos_ends() const {
    return Span<int64_t>(pos_end_.data(), pos_end_.size());
  }
  /// Body-arena offsets (num_rules()+1 entries); see rule_indices().
  Span<int64_t> body_offsets() const {
    return Span<int64_t>(body_offset_.data(), body_offset_.size());
  }
  /// The flat body-atom arena; see rule_indices().
  Span<AtomId> body_arena() const {
    return Span<AtomId>(body_.data(), body_.size());
  }
  /// Binding-arena offsets (num_rules()+1 entries); see rule_indices().
  Span<int64_t> binding_offsets() const {
    return Span<int64_t>(binding_offset_.data(), binding_offset_.size());
  }
  /// The flat binding-constant arena; see rule_indices().
  Span<ConstId> binding_arena() const {
    return Span<ConstId>(binding_.data(), binding_.size());
  }

  /// Storage restore path: rebuilds a *finalized* graph from an atom store
  /// (already validated/restored via GroundAtomStore::FromArenas) plus
  /// untrusted rule arenas in the dump layout. Validates every
  /// cross-arena invariant — equal per-rule array lengths, offset arrays
  /// starting at 0, monotone and ending exactly at their arena sizes,
  /// pos_end within each rule's body range, every head/body AtomId within
  /// the store, every binding ConstId in [0, num_constants), every rule
  /// index nonnegative (and < num_program_rules when >= 0 is passed) —
  /// returning kDataLoss on any violation, then rebuilds the inverse CSR
  /// indexes with the serial Finalize. The rule arenas of the returned
  /// graph are bit-identical to the dumped ones.
  static Result<GroundGraph> FromArenas(GroundAtomStore atoms,
                                        Span<int32_t> rule_indices,
                                        Span<AtomId> heads,
                                        Span<int64_t> pos_ends,
                                        Span<int64_t> body_offsets,
                                        Span<AtomId> body,
                                        Span<int64_t> binding_offsets,
                                        Span<ConstId> bindings,
                                        int32_t num_constants,
                                        int32_t num_program_rules);

 private:
  void CheckRule(int32_t r) const {
    TIEBREAK_CHECK_GE(r, 0);
    TIEBREAK_CHECK_LT(r, num_rules());
  }
  void CheckFinalizedAtom(AtomId atom) const {
    TIEBREAK_CHECK(finalized_);
    TIEBREAK_CHECK_GE(atom, 0);
    TIEBREAK_CHECK_LT(atom, num_atoms());
  }

  GroundAtomStore atoms_;
  bool finalized_ = false;

  // Rule-node arenas; rule r's body occupies body_[body_offset_[r],
  // body_offset_[r+1]) with positives before pos_end_[r].
  std::vector<int32_t> rule_index_;
  std::vector<AtomId> head_;
  std::vector<int64_t> body_offset_{0};
  std::vector<int64_t> pos_end_;
  std::vector<AtomId> body_;
  std::vector<int64_t> binding_offset_{0};
  std::vector<ConstId> binding_;

  // CSR inverse indexes (built by Finalize).
  std::vector<int64_t> sup_offset_, pos_offset_, neg_offset_;
  std::vector<int32_t> supporters_, pos_consumers_, neg_consumers_;
};

/// Bulk Δ-membership: out[a] == 1 iff atom a of `atoms` is a fact of
/// `database`. One scan over Δ with store lookups (an array index for a
/// predicate with a dense table, a hash probe otherwise) — the flat
/// replacement for calling Database::Contains once per atom with a freshly
/// materialized Tuple (the pattern that regressed close-state
/// construction). On an indexed store (has_predicate_index()) the scan
/// skips predicates with no interned atom, so reduced groundings, which
/// intern no EDB atom, pay nothing for Δ's EDB relations. Interpreters use
/// it to initialize M0(Δ) / base facts.
std::vector<char> DeltaAtomMask(const Database& database,
                                const GroundAtomStore& atoms);

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_GROUND_GRAPH_H_
