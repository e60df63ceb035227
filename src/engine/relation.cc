#include "engine/relation.h"

#include <algorithm>
#include <bit>

namespace tiebreak {

namespace {
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr int32_t kInitialSlots = 16;  // power of two
// How many rows ahead the batch paths prefetch dedupe/index slot lines.
constexpr int64_t kPrefetchAhead = 8;

// Smallest power of two >= max(bound, kInitialSlots).
size_t PowerOfTwoAtLeast(size_t bound) {
  size_t capacity = kInitialSlots;
  while (capacity < bound) capacity *= 2;
  return capacity;
}

// The shared probe key over the masked positions, parameterized over how a
// position's value is fetched (from a pattern array or from a stored row)
// so the two call sites cannot drift apart. ConstIds are nonnegative
// 31-bit values, so one or two of them pack injectively — the key IS the
// masked tuple and key equality is match equality. Wider masks fall back
// to an FNV chain (collisions possible; chains verify rows anyway). Slot
// positions are always derived via Relation::MixSlot, so the packed keys
// need no avalanche of their own.
template <typename GetFn>
uint64_t ProbeKeyImpl(uint32_t mask, GetFn get) {
  switch (std::popcount(mask)) {
    case 0:
      return 0;
    case 1: {
      const int32_t i = std::countr_zero(mask);
      return static_cast<uint64_t>(get(i));
    }
    case 2: {
      const int32_t i = std::countr_zero(mask);
      const int32_t j = std::countr_zero(mask & (mask - 1));
      return static_cast<uint64_t>(get(i)) << 32 |
             static_cast<uint32_t>(get(j));
    }
    default: {
      uint64_t h = kFnvOffset ^ mask;
      for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
        h ^= static_cast<uint64_t>(get(std::countr_zero(bits))) + kGolden;
        h *= kFnvPrime;
      }
      return h;
    }
  }
}

}  // namespace

uint64_t Relation::FingerprintOf(const ConstId* values, int32_t count) const {
  // Arity ≤ 2 packs exactly (see ExactFingerprints); wider tuples hash.
  switch (count) {
    case 0:
      return 0;
    case 1:
      return static_cast<uint64_t>(values[0]);
    case 2:
      return static_cast<uint64_t>(values[0]) << 32 |
             static_cast<uint32_t>(values[1]);
    default: {
      uint64_t h = kFnvOffset;
      for (int32_t i = 0; i < count; ++i) {
        h ^= static_cast<uint64_t>(values[i]) + kGolden;
        h *= kFnvPrime;
      }
      return h;
    }
  }
}

uint64_t Relation::ProbeKeyOf(uint32_t mask, const ConstId* values) const {
  return ProbeKeyImpl(mask, [values](int32_t i) { return values[i]; });
}

uint64_t Relation::RowProbeKey(uint32_t mask, int32_t row) const {
  return ProbeKeyImpl(mask, [this, row](int32_t i) { return At(row, i); });
}

int32_t Relation::FindRow(const ConstId* values, uint64_t fingerprint) const {
  if (dedupe_.empty()) return -1;
  const size_t slot_mask = dedupe_.size() - 1;
  for (size_t slot = MixSlot(fingerprint) & slot_mask;;
       slot = (slot + 1) & slot_mask) {
    const int32_t row = dedupe_[slot];
    if (row < 0) return -1;
    if (RowEquals(row, values)) return row;
  }
}

void Relation::GrowArena(int64_t min_capacity) {
  int64_t new_capacity = capacity_ == 0 ? 16 : capacity_ * 2;
  while (new_capacity < min_capacity) new_capacity *= 2;
  std::vector<ConstId> fresh(static_cast<size_t>(new_capacity) * arity_);
  for (int32_t c = 0; c < arity_; ++c) {
    const ConstId* src = data_.data() + static_cast<size_t>(c) * capacity_;
    ConstId* dst = fresh.data() + static_cast<size_t>(c) * new_capacity;
    std::copy(src, src + num_rows_, dst);
  }
  data_ = std::move(fresh);
  capacity_ = new_capacity;
}

void Relation::GrowDedupe() {
  RehashDedupe(dedupe_.empty() ? kInitialSlots : dedupe_.size() * 2);
}

void Relation::RehashDedupe(size_t new_capacity) {
  // Slots hold only row ids, so rehashing recomputes fingerprints from the
  // columns — in row order, so each column block is read as one sequential
  // stream (iterating slots instead would gather rows randomly). Rare by
  // construction: every bulk path pre-sizes the table for its whole batch.
  std::vector<int32_t> fresh(new_capacity, -1);
  const size_t slot_mask = new_capacity - 1;
  std::vector<ConstId> row_buf(static_cast<size_t>(arity_));
  for (int32_t row = 0; row < num_rows_; ++row) {
    CopyRow(row, row_buf.data());
    size_t slot = MixSlot(FingerprintOf(row_buf.data(), arity_)) & slot_mask;
    while (fresh[slot] >= 0) slot = (slot + 1) & slot_mask;
    fresh[slot] = row;
  }
  dedupe_ = std::move(fresh);
}

bool Relation::Insert(const ConstId* values, uint64_t fingerprint) {
  if (dedupe_.empty() ||
      static_cast<size_t>(num_rows_ + 1) * 2 > dedupe_.size()) {
    GrowDedupe();
  }
  const size_t slot_mask = dedupe_.size() - 1;
  size_t slot = MixSlot(fingerprint) & slot_mask;
  while (dedupe_[slot] >= 0) {
    if (RowEquals(dedupe_[slot], values)) return false;
    slot = (slot + 1) & slot_mask;
  }
  AppendRow(values);
  const int32_t row = num_rows_++;
  dedupe_[slot] = row;
  for (ProbeIndex& index : indexes_) AppendToIndex(&index, row);
  return true;
}

void Relation::Reserve(int64_t num_rows) {
  TIEBREAK_CHECK_GE(num_rows, 0);
  if (num_rows > capacity_) GrowArena(num_rows);
  const size_t wanted = PowerOfTwoAtLeast(static_cast<size_t>(num_rows) * 2);
  if (dedupe_.size() < wanted) RehashDedupe(wanted);
}

void Relation::InsertUniqueBulk(const ConstId* rows, int64_t count) {
  if (count <= 0) return;
  if (arity_ == 0) {
    // At most one distinct zero-arity tuple exists; the uniqueness contract
    // makes this a single ordinary insert.
    TIEBREAK_CHECK_EQ(count, 1);
    Insert(rows);
    return;
  }
  const int32_t first_new = num_rows_;
  if (num_rows_ + count > capacity_) GrowArena(num_rows_ + count);
  // Column-wise scatter from the row-major input: each column block is a
  // sequential write.
  for (int32_t c = 0; c < arity_; ++c) {
    ConstId* out = data_.data() + static_cast<size_t>(c) * capacity_ +
                   num_rows_;
    const ConstId* in = rows + c;
    for (int64_t r = 0; r < count; ++r, in += arity_) out[r] = *in;
  }
  const size_t wanted =
      PowerOfTwoAtLeast(static_cast<size_t>(num_rows_ + count) * 2);
  if (dedupe_.size() < wanted) RehashDedupe(wanted);
  const size_t slot_mask = dedupe_.size() - 1;
  std::vector<uint64_t> fps(static_cast<size_t>(count));
  for (int64_t r = 0; r < count; ++r) {
    fps[r] = FingerprintOf(rows + r * arity_, arity_);
  }
  // Every row is new by contract, so slot placement never compares tuples:
  // it probes to the first empty slot. (With arity > 2, distinct tuples
  // that collide on the hashed fingerprint simply occupy two slots, which
  // FindRow handles by verifying columns on fingerprint matches.)
  for (int64_t r = 0; r < count; ++r) {
    if (r + kPrefetchAhead < count) PrefetchDedupe(fps[r + kPrefetchAhead]);
    size_t slot = MixSlot(fps[r]) & slot_mask;
    while (dedupe_[slot] >= 0) slot = (slot + 1) & slot_mask;
    dedupe_[slot] = num_rows_++;
  }
  for (ProbeIndex& index : indexes_) {
    index.next.reserve(num_rows_);
    for (int32_t row = first_new; row < num_rows_; ++row) {
      AppendToIndex(&index, row);
    }
  }
}

int64_t Relation::InsertBatch(const ConstId* rows, int64_t count) {
  if (count <= 0) return 0;
  // Pre-grow once so mid-batch inserts never rehash (which would strand the
  // prefetches on the old slot arrays).
  const size_t wanted =
      PowerOfTwoAtLeast(static_cast<size_t>(num_rows_ + count + 1) * 2);
  if (dedupe_.size() < wanted) RehashDedupe(wanted);
  std::vector<uint64_t> fps(static_cast<size_t>(count));
  for (int64_t r = 0; r < count; ++r) {
    fps[r] = FingerprintOf(rows + r * arity_, arity_);
  }
  int64_t inserted = 0;
  for (int64_t r = 0; r < count; ++r) {
    if (r + kPrefetchAhead < count) {
      // Prefetch the dedupe slot and, for rows likely new, the index slot
      // lines the insert will touch.
      PrefetchDedupe(fps[r + kPrefetchAhead]);
      for (const ProbeIndex& index : indexes_) {
        if (index.slots.empty()) continue;
        const uint64_t key =
            ProbeKeyOf(index.mask, rows + (r + kPrefetchAhead) * arity_);
        __builtin_prefetch(
            &index.slots[MixSlot(key) & (index.slots.size() - 1)]);
      }
    }
    if (Insert(rows + r * arity_, fps[r])) ++inserted;
  }
  return inserted;
}

void Relation::GrowIndexSlots(ProbeIndex* index) {
  const size_t new_capacity =
      index->slots.empty() ? kInitialSlots : index->slots.size() * 2;
  std::vector<Slot> fresh(new_capacity);
  const size_t slot_mask = new_capacity - 1;
  // Chains move wholesale: rehashing touches only the slot table, never the
  // `next` links, so live MatchRange walks are unaffected.
  for (const Slot& entry : index->slots) {
    if (entry.row < 0) continue;
    size_t slot = MixSlot(entry.key) & slot_mask;
    while (fresh[slot].row >= 0) slot = (slot + 1) & slot_mask;
    fresh[slot] = entry;
  }
  index->slots = std::move(fresh);
}

void Relation::AppendToIndex(ProbeIndex* index, int32_t row) const {
  if (index->slots.empty() ||
      static_cast<size_t>(index->used_slots + 1) * 2 > index->slots.size()) {
    GrowIndexSlots(index);
  }
  const uint64_t key = RowProbeKey(index->mask, row);
  const size_t slot_mask = index->slots.size() - 1;
  size_t slot = MixSlot(key) & slot_mask;
  while (index->slots[slot].row >= 0 && index->slots[slot].key != key) {
    slot = (slot + 1) & slot_mask;
  }
  index->next.push_back(index->slots[slot].row >= 0 ? index->slots[slot].row
                                                    : -1);
  if (index->slots[slot].row < 0) {
    index->slots[slot].key = key;
    ++index->used_slots;
  }
  index->slots[slot].row = row;
}

Relation::ProbeIndex& Relation::EnsureIndex(uint32_t mask) const {
  for (ProbeIndex& index : indexes_) {
    if (index.mask == mask) return index;
  }
  ProbeIndex& index = indexes_.emplace_back();
  index.mask = mask;
  index.next.reserve(num_rows_);
  for (int32_t row = 0; row < num_rows_; ++row) AppendToIndex(&index, row);
  return index;
}

Relation::MatchRange Relation::Probe(uint32_t mask,
                                     const ConstId* pattern) const {
  const ProbeIndex& index = EnsureIndex(mask);
  const int32_t index_pos = static_cast<int32_t>(&index - indexes_.data());
  return MatchRange(this, index_pos,
                    ProbeChainHead(ProbeRef{index_pos},
                                   ProbeKeyOf(mask, pattern)));
}

Relation::MatchRange Relation::ProbeHashed(ProbeRef ref, uint64_t key) const {
  return MatchRange(this, ref.index_pos, ProbeChainHead(ref, key));
}

int32_t Relation::ProbeChainHead(ProbeRef ref, uint64_t key) const {
  const ProbeIndex& index = indexes_[ref.index_pos];
  if (index.slots.empty()) return -1;
  const size_t slot_mask = index.slots.size() - 1;
  size_t slot = MixSlot(key) & slot_mask;
  while (index.slots[slot].row >= 0 && index.slots[slot].key != key) {
    slot = (slot + 1) & slot_mask;
  }
  return index.slots[slot].row;
}

Relation::SortedIndex& Relation::EnsureSorted(uint32_t mask) const {
  for (SortedIndex& sorted : sorted_indexes_) {
    if (sorted.mask == mask) return sorted;
  }
  SortedIndex& sorted = sorted_indexes_.emplace_back();
  sorted.mask = mask;
  return sorted;
}

void Relation::RefreshSorted(SortedIndex* sorted) const {
  if (sorted->built_rows == num_rows_) return;
  // Sort the appended tail, then merge it with the already-sorted prefix
  // into fresh arrays (two parallel arrays beat an array-of-pairs for the
  // binary-search scans that consume this index).
  std::vector<std::pair<uint64_t, int32_t>> tail;
  tail.reserve(static_cast<size_t>(num_rows_ - sorted->built_rows));
  for (int32_t row = static_cast<int32_t>(sorted->built_rows);
       row < num_rows_; ++row) {
    tail.emplace_back(RowProbeKey(sorted->mask, row), row);
  }
  std::sort(tail.begin(), tail.end());
  std::vector<uint64_t> keys;
  std::vector<int32_t> rows;
  keys.reserve(static_cast<size_t>(num_rows_));
  rows.reserve(static_cast<size_t>(num_rows_));
  size_t old_at = 0;
  size_t tail_at = 0;
  const size_t old_size = sorted->keys.size();
  while (old_at < old_size || tail_at < tail.size()) {
    const bool take_old =
        tail_at == tail.size() ||
        (old_at < old_size &&
         (sorted->keys[old_at] < tail[tail_at].first ||
          (sorted->keys[old_at] == tail[tail_at].first &&
           sorted->rows[old_at] < tail[tail_at].second)));
    if (take_old) {
      keys.push_back(sorted->keys[old_at]);
      rows.push_back(sorted->rows[old_at]);
      ++old_at;
    } else {
      keys.push_back(tail[tail_at].first);
      rows.push_back(tail[tail_at].second);
      ++tail_at;
    }
  }
  sorted->keys = std::move(keys);
  sorted->rows = std::move(rows);
  sorted->built_rows = num_rows_;
  sorted->distinct_keys = 0;
  for (size_t i = 0; i < sorted->keys.size(); ++i) {
    if (i == 0 || sorted->keys[i] != sorted->keys[i - 1]) {
      ++sorted->distinct_keys;
    }
  }
}

Relation::SortedRun Relation::ProbeSorted(uint32_t mask,
                                          const ConstId* pattern) const {
  SortedIndex& sorted = EnsureSorted(mask);
  RefreshSorted(&sorted);
  const uint64_t key = ProbeKeyOf(mask, pattern);
  const auto begin = sorted.keys.begin();
  const auto lo = std::lower_bound(begin, sorted.keys.end(), key);
  if (lo == sorted.keys.end() || *lo != key) return SortedRun{};
  const auto hi = std::upper_bound(lo, sorted.keys.end(), key);
  const int32_t* rows = sorted.rows.data();
  return SortedRun{rows + (lo - begin), rows + (hi - begin)};
}

int64_t Relation::DistinctKeysEstimate(uint32_t mask) const {
  for (const SortedIndex& sorted : sorted_indexes_) {
    if (sorted.mask == mask && sorted.built_rows == num_rows_) {
      return sorted.distinct_keys;
    }
  }
  for (const ProbeIndex& index : indexes_) {
    if (index.mask == mask) return index.used_slots;
  }
  return -1;
}

}  // namespace tiebreak
