// Relations for the bottom-up engine: column-major (SoA) tuple storage with
// incrementally-maintained probe indexes. The ground-graph machinery
// (ground/) is the paper-faithful semantic core; this engine is the
// performance substrate for evaluating *stratified* programs at scale
// (benchmarks, counter-machine trajectories, perfect-model cross-checks).
//
// Storage layout. Tuples live column-major (SoA) in one flat arena:
// column c occupies the contiguous block data_[c*capacity .. c*capacity +
// num_rows), addressed by dense row id. Insert appends one value to each
// column block — there is no per-tuple heap allocation, no
// vector-of-rows, and row ids are stable forever (rows are never moved or
// deleted; growing the arena re-lays the column blocks out but preserves
// ids). Column-major layout is what the vectorized join kernels in
// engine/evaluation.cc scan: a filter over one argument position touches
// exactly one contiguous array, and a block gather of a probe-key column
// is a sequential read.
//
// Deduplication. An open-addressing table (power-of-two capacity, linear
// probing, ≤50% load) maps a 64-bit tuple fingerprint — the packed tuple
// itself for arity ≤ 2 (ConstIds are nonnegative 31-bit values, so one or
// two of them pack injectively), an FNV hash beyond — to a row id.
// Candidate rows are confirmed against the columns. Slots hold only the
// 4-byte row id: the table is the one structure that scales with *rows*
// (probe-index slot tables scale with distinct keys), and keeping it
// 4 bytes/slot is what keeps million-row tables cache-resident — the
// column compare it forces per candidate lands in the far smaller arena.
// Slot placement mixes the fingerprint's high word and folds the low word
// in at a small odd stride (see MixSlot), so sequential derivation keys
// probe the table at a hardware-prefetchable stride while distinct groups
// spread uniformly. Batch paths (InsertBatch, InsertUniqueBulk) hash
// several tuples ahead and software-prefetch the slot lines before
// touching them, hiding the latency of out-of-cache tables.
//
// Probe indexes. A probe asks for all rows whose columns selected by a
// bit mask equal a pattern. Per distinct mask the relation materializes
// (lazily, on first probe) a hash index: an open-addressing table from the
// masked-column probe key (packed-exact for ≤ 2 masked columns, hashed
// beyond) to the head of an intrusive chain threaded through a per-index
// `next` array (next[row] = older row with the same key). The
// index-maintenance contract is *incremental*: Insert appends the new row
// to every materialized index in O(1) amortized — indexes are never
// invalidated and never rebuilt, so semi-naive delta rounds that
// interleave Insert and Probe on the same mask pay no rebuild cost and
// always observe previously inserted tuples. Probe iteration is therefore
// stable under concurrent inserts into the same relation: rows inserted
// mid-iteration prepend to chain heads already passed and become visible
// to the *next* probe (exactly the semantics fixpoint rounds need).
//
// Sorted (merge-join) indexes. For masks whose keys repeat heavily (long
// hash chains), the relation can additionally materialize a sorted-key
// index: (key-hash, row) pairs sorted by key, probed by binary search into
// a contiguous run — the sort-merge access path the evaluator selects when
// a mask's selectivity estimate crosses kMergeJoinSelectivity (in
// evaluation.cc). Sorted indexes absorb appended rows by sorting the new
// tail and merging it in at the next probe; see ProbeSorted for the
// invalidation contract.
//
// Thread safety. A Relation is not thread-safe: even Probe and ProbeSorted
// build indexes lazily.
#ifndef TIEBREAK_ENGINE_RELATION_H_
#define TIEBREAK_ENGINE_RELATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "lang/symbols.h"
#include "util/logging.h"

namespace tiebreak {

/// A set of same-arity tuples in column-major storage, with probe indexes.
/// Not thread-safe; see the file comment.
class Relation {
 public:
  /// An empty relation of `arity` columns (arity 0 = propositions).
  explicit Relation(int32_t arity) : arity_(arity) {
    TIEBREAK_CHECK_GE(arity, 0);
  }

  /// Number of columns per tuple.
  int32_t arity() const { return arity_; }
  /// Number of stored (distinct) tuples.
  int64_t size() const { return num_rows_; }
  /// True iff no tuple is stored.
  bool empty() const { return num_rows_ == 0; }

  /// Inserts the tuple at `values` (arity() consecutive ids); returns true
  /// when it was new. Appends to all materialized probe indexes.
  bool Insert(const ConstId* values) {
    return Insert(values, TupleFingerprint(values));
  }
  bool Insert(const Tuple& tuple) {
    TIEBREAK_CHECK_EQ(static_cast<int32_t>(tuple.size()), arity_);
    return Insert(tuple.data());
  }

  /// True iff the tuple at `values` is present.
  bool Contains(const ConstId* values) const {
    return FindRow(values, TupleFingerprint(values)) >= 0;
  }
  bool Contains(const Tuple& tuple) const {
    TIEBREAK_CHECK_EQ(static_cast<int32_t>(tuple.size()), arity_);
    return Contains(tuple.data());
  }

  /// Pointer to column `column`'s contiguous values (one per row). Valid
  /// until the next insert into this relation (appends may regrow the
  /// arena).
  const ConstId* ColumnData(int32_t column) const {
    return data_.data() + static_cast<size_t>(column) * capacity_;
  }
  /// Value of column `column` in row `row`.
  ConstId At(int32_t row, int32_t column) const {
    return data_[static_cast<size_t>(column) * capacity_ + row];
  }
  /// Gathers row `row` into `out` (arity() consecutive ids).
  void CopyRow(int32_t row, ConstId* out) const {
    for (int32_t c = 0; c < arity_; ++c) out[c] = At(row, c);
  }
  /// Materializes row `row` as an owned Tuple (convenience; allocates).
  Tuple TupleAt(int32_t row) const {
    Tuple tuple(arity_);
    CopyRow(row, tuple.data());
    return tuple;
  }

  /// Pre-sizes the columns and dedupe table for `num_rows` total rows (bulk
  /// EDB loads know their size up front).
  void Reserve(int64_t num_rows);

  /// Appends `count` rows given row-major at `rows` (count × arity ids)
  /// under the guarantee that they are pairwise distinct AND none is
  /// already present — the caller owns that contract (e.g. loading from a
  /// deduplicated sorted set into an empty or disjoint relation). Skips
  /// all membership verification and pipelines the fingerprint-table
  /// stores behind software prefetch; ~2x faster than per-tuple Insert on
  /// million-row loads. Violating the uniqueness contract silently breaks
  /// set semantics — there is no cheap way to detect it here. Mutation:
  /// exclusive access required.
  void InsertUniqueBulk(const ConstId* rows, int64_t count);

  /// Deduplicating batch insert of `count` row-major rows: fingerprints are
  /// computed and slot lines prefetched a few rows ahead, then each row is
  /// inserted exactly like Insert(). Returns the number of new rows.
  /// Derived-tuple sinks buffer a block of head tuples and flush through
  /// this to hide dedupe-table DRAM latency.
  int64_t InsertBatch(const ConstId* rows, int64_t count);

  /// Lazy range over the row ids matching a probe; see Probe().
  class MatchRange {
   public:
    class iterator {
     public:
      int32_t operator*() const { return row_; }
      iterator& operator++() {
        row_ = relation_->indexes_[index_pos_].next[row_];
        return *this;
      }
      bool operator!=(const iterator& other) const {
        return row_ != other.row_;
      }

     private:
      friend class MatchRange;
      iterator(const Relation* relation, int32_t index_pos, int32_t row)
          : relation_(relation), index_pos_(index_pos), row_(row) {}
      // Chain links are re-fetched through the relation on every step, so
      // iteration stays valid when inserts grow the index mid-walk.
      const Relation* relation_;
      int32_t index_pos_;
      int32_t row_;
    };

    iterator begin() const { return iterator(relation_, index_pos_, head_); }
    iterator end() const { return iterator(relation_, index_pos_, -1); }
    bool empty() const { return head_ < 0; }

   private:
    friend class Relation;
    MatchRange(const Relation* relation, int32_t index_pos, int32_t head)
        : relation_(relation), index_pos_(index_pos), head_(head) {}
    const Relation* relation_;
    int32_t index_pos_;
    int32_t head_;
  };

  /// Row ids of tuples whose positions in `mask` (bit i = column i bound)
  /// equal the corresponding entries of `pattern` (unbound entries of
  /// `pattern` are ignored). Rows sharing the 64-bit masked-column hash are
  /// chained together, so callers must verify candidate rows against the
  /// pattern (hash collisions are astronomically rare but possible).
  /// Iterates newest-first; rows inserted after this call are not seen by
  /// the returned range.
  MatchRange Probe(uint32_t mask, const ConstId* pattern) const;
  MatchRange Probe(uint32_t mask, const Tuple& pattern) const {
    TIEBREAK_CHECK_EQ(static_cast<int32_t>(pattern.size()), arity_);
    return Probe(mask, pattern.data());
  }

  /// Stable handle to the materialized probe index for one mask, for the
  /// vectorized probe loop: resolve the handle once per block instead of
  /// searching the index list per row. Handles stay valid across inserts
  /// (positions in the index list never move).
  struct ProbeRef {
    int32_t index_pos = -1;
  };
  /// Materializes (if needed) and returns the handle for `mask`.
  ProbeRef ProbeRefFor(uint32_t mask) const {
    return ProbeRef{
        static_cast<int32_t>(&EnsureIndex(mask) - indexes_.data())};
  }
  /// The probe key of `pattern` under `mask` — the same key the index
  /// buckets rows by (packed-exact for ≤ 2 masked columns), exposed so
  /// batch kernels can compute several keys ahead of the probes that
  /// consume them.
  uint64_t ProbeKey(uint32_t mask, const ConstId* pattern) const {
    return ProbeKeyOf(mask, pattern);
  }
  /// Prefetches the slot line `key` maps to in `ref`'s index.
  void PrefetchProbe(ProbeRef ref, uint64_t key) const {
    const ProbeIndex& index = indexes_[ref.index_pos];
    if (!index.slots.empty()) {
      __builtin_prefetch(&index.slots[MixSlot(key) & (index.slots.size() - 1)]);
    }
  }
  /// Probe through a pre-resolved handle with a precomputed key (`key`
  /// must equal ProbeKey(mask, pattern) for the handle's mask). Same
  /// contract as Probe().
  MatchRange ProbeHashed(ProbeRef ref, uint64_t key) const;
  /// Head row of the chain `key` maps to in `ref`'s index (-1 = no match):
  /// ProbeHashed minus the range object, for kernels that walk chains
  /// manually with NextInChain.
  int32_t ProbeChainHead(ProbeRef ref, uint64_t key) const;
  /// The next-older row in `row`'s chain of `ref`'s index (-1 = end).
  /// Always reads the current chain state, so walks stay valid while the
  /// relation grows (new rows prepend at heads already passed).
  int32_t NextInChain(ProbeRef ref, int32_t row) const {
    return indexes_[ref.index_pos].next[row];
  }
  /// Prefetches row `row`'s chain link and column entries — chain walks
  /// hide the pointer-chase latency by prefetching one candidate ahead.
  void PrefetchChainRow(ProbeRef ref, int32_t row) const {
    __builtin_prefetch(&indexes_[ref.index_pos].next[row]);
    for (int32_t c = 0; c < arity_; ++c) {
      __builtin_prefetch(&data_[static_cast<size_t>(c) * capacity_ + row]);
    }
  }
  /// True when probe-key equality under `mask` already proves that the
  /// masked columns match the pattern (≤ 2 masked columns pack exactly):
  /// chain candidates then need no masked-column verification.
  static bool ExactProbeKeys(uint32_t mask) {
    return __builtin_popcount(mask) <= 2;
  }

  /// A contiguous run of row ids sharing one probe key inside a sorted
  /// index; candidates still need pattern verification (keys wider than
  /// two columns can collide), exactly like MatchRange chains.
  struct SortedRun {
    const int32_t* begin_ = nullptr;
    const int32_t* end_ = nullptr;
    const int32_t* begin() const { return begin_; }
    const int32_t* end() const { return end_; }
    bool empty() const { return begin_ == end_; }
  };

  /// Binary-searches the sorted-key index for rows matching `pattern`
  /// under `mask`. Rows appended since the last refresh are absorbed first
  /// (sort the tail, merge) — which invalidates SortedRuns handed out
  /// earlier, so callers must not hold a run across a ProbeSorted on the
  /// same (relation, mask) after the relation grew. The evaluator
  /// guarantees this by never selecting the merge path for a relation the
  /// running rule inserts into (see JoinStep::merge in evaluation.cc).
  /// Run order is ascending row id.
  SortedRun ProbeSorted(uint32_t mask, const ConstId* pattern) const;

  /// Number of distinct probe keys under `mask`, when some index for
  /// `mask` has already been materialized; -1 when unknown. The plan
  /// compiler's selectivity estimate (distinct/size is the fraction of
  /// rows one key selects on average — crossing below the evaluator's
  /// merge-join threshold switches the step to a sort-merge join).
  int64_t DistinctKeysEstimate(uint32_t mask) const;

 private:
  // One open-addressing slot: the full 64-bit key (probe key or tuple
  // fingerprint) packed next to the row it heads, so one probe touches one
  // cache line. row < 0 = empty (key is then meaningless).
  struct Slot {
    uint64_t key = 0;
    int32_t row = -1;
  };

  // One materialized per-mask hash index: open-addressing slots mapping a
  // masked-column probe key to the newest row with that key, plus the
  // intrusive chain (next[row] = next-older row with the same key, -1 at
  // the end).
  struct ProbeIndex {
    uint32_t mask = 0;
    std::vector<Slot> slots;     // slot.row = newest row with slot.key
    std::vector<int32_t> next;   // chain links, indexed by row id
    int32_t used_slots = 0;
  };

  // One materialized per-mask sorted-key index: parallel arrays of probe
  // key and row id, sorted by (key, row) and covering rows
  // [0, built_rows). Rows appended later form an unindexed tail that the
  // next refresh sorts and merges in. Parallel arrays (not pairs) so the
  // binary searches scan a dense key array and SortedRun can hand out a
  // contiguous row-id span.
  struct SortedIndex {
    uint32_t mask = 0;
    std::vector<uint64_t> keys;
    std::vector<int32_t> rows;
    int64_t built_rows = 0;
    int64_t distinct_keys = 0;
  };

  // Maps a fingerprint or probe key to a slot-table position. The high
  // word gets a full splitmix64 avalanche; the low word — the fastest-
  // varying column of a packed key — is folded in with a small odd
  // stride. Fixpoint rounds derive tuples whose last column counts up or
  // down, so their dedupe probes walk the table at a constant ±431-slot
  // stride that the hardware stride prefetcher covers (measured ~1.5x on
  // insert-heavy rounds versus full avalanche). The stride is odd (a
  // bijection mod the power-of-two capacity, so distribution is not
  // weakened), and small enough (~1.7KB) for stride prefetchers to track.
  // Raw low bits without the multiplier would be faster still but
  // coalesce dense key ranges into giant linear-probing clusters; the
  // stride keeps overlapping groups interleaved.
  static uint64_t MixSlot(uint64_t x) {
    uint64_t high = (x >> 32) + 0x9E3779B97F4A7C15ULL;
    high = (high ^ (high >> 30)) * 0xBF58476D1CE4E5B9ULL;
    high = (high ^ (high >> 27)) * 0x94D049BB133111EBULL;
    return (high ^ (high >> 31)) + (x & 0xFFFFFFFFULL) * 431;
  }
  // The dedupe hash of the arity() ids at `values`.
  uint64_t TupleFingerprint(const ConstId* values) const {
    return FingerprintOf(values, arity_);
  }
  // Insert with the tuple's precomputed TupleFingerprint: the batch
  // inserters hash a block of tuples before probing any of them.
  bool Insert(const ConstId* values, uint64_t fingerprint);
  // Prefetches the dedupe slot line for `fingerprint`. Advisory only.
  void PrefetchDedupe(uint64_t fingerprint) const {
    if (!dedupe_.empty()) {
      __builtin_prefetch(&dedupe_[MixSlot(fingerprint) & (dedupe_.size() - 1)]);
    }
  }
  int32_t FindRow(const ConstId* values, uint64_t fingerprint) const;
  bool RowEquals(int32_t row, const ConstId* values) const {
    for (int32_t c = 0; c < arity_; ++c) {
      if (At(row, c) != values[c]) return false;
    }
    return true;
  }
  void GrowArena(int64_t min_capacity);
  void AppendRow(const ConstId* values) {
    if (num_rows_ == capacity_) GrowArena(num_rows_ + 1);
    for (int32_t c = 0; c < arity_; ++c) {
      data_[static_cast<size_t>(c) * capacity_ + num_rows_] = values[c];
    }
  }
  void GrowDedupe();
  void RehashDedupe(size_t new_capacity);
  ProbeIndex& EnsureIndex(uint32_t mask) const;
  void AppendToIndex(ProbeIndex* index, int32_t row) const;
  static void GrowIndexSlots(ProbeIndex* index);
  SortedIndex& EnsureSorted(uint32_t mask) const;
  void RefreshSorted(SortedIndex* sorted) const;
  uint64_t RowProbeKey(uint32_t mask, int32_t row) const;
  uint64_t FingerprintOf(const ConstId* values, int32_t count) const;
  uint64_t ProbeKeyOf(uint32_t mask, const ConstId* values) const;

  int32_t arity_;
  int32_t num_rows_ = 0;
  // Rows the arena can hold before the next re-layout.
  int64_t capacity_ = 0;
  // Column-major arena: column c of row r is data_[c*capacity_ + r].
  std::vector<ConstId> data_;
  // Open-addressing dedupe table over tuple fingerprints; entries are row
  // ids, -1 = empty. Capacity is a power of two, load factor ≤ 1/2.
  // 4 bytes per slot on purpose — see the file comment.
  std::vector<int32_t> dedupe_;
  // One hash index per distinct probed mask (typically ≤ a handful).
  // Positions are stable handles: MatchRange and ProbeRef refer to indexes
  // by position so that growing this vector never invalidates them.
  mutable std::vector<ProbeIndex> indexes_;
  // Sorted-key indexes for masks probed via the merge path.
  mutable std::vector<SortedIndex> sorted_indexes_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_ENGINE_RELATION_H_
