// Agreement suite for GroundAtomStore's two dedupe tables. Randomized
// intern/lookup sequences run against a std::map reference on two stores:
// one whose unary predicates have dense tables (GroundAtomStore::
// ReserveDense) and one with hash tables only. Both must hand out the
// reference's ids, answer every Lookup as the reference does (-1
// included), and end with identical arenas. The sequences cover unary
// atoms over dense and sparse constants, constants at and past the dense
// range, several arities under one predicate, a dense table reserved after
// atoms were interned, and the batch pipeline (InternKey ->
// PrefetchIntern -> InternHashed).
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ground/ground_graph.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"

namespace tiebreak {
namespace {

using testing_util::ToVector;

using AtomKey = std::pair<PredId, Tuple>;

// Predicates of the randomized sequences.
constexpr PredId kDensePred = 0;     // dense over [0, kRange), mixed arities
constexpr PredId kSparsePred = 1;    // dense over [0, kWideRange), sparse use
constexpr PredId kHashPred = 2;      // hash table only
constexpr PredId kLateDensePred = 3; // dense table reserved mid-sequence
constexpr int32_t kNumPreds = 4;
constexpr int32_t kRange = 64;
constexpr int32_t kWideRange = 1 << 16;

// The store pair plus the reference every answer is checked against.
class StoreHarness {
 public:
  StoreHarness() {
    dense_.ReserveDense(kDensePred, kRange);
    dense_.ReserveDense(kSparsePred, kWideRange);
  }

  // Interns `key` into both stores one atom at a time.
  void Intern(const AtomKey& key) {
    const int32_t arity = static_cast<int32_t>(key.second.size());
    const AtomId expected = Expect(key);
    ASSERT_EQ(dense_.Intern(key.first, key.second.data(), arity), expected)
        << Describe(key);
    ASSERT_EQ(hash_.Intern(key.first, key.second.data(), arity), expected)
        << Describe(key);
  }

  // Interns `block` into both stores through the batch pipeline: every
  // key first, then every prefetch, then the consuming interns in order.
  void InternBlock(const std::vector<AtomKey>& block) {
    for (GroundAtomStore* store : {&dense_, &hash_}) {
      std::vector<uint64_t> keys;
      for (const AtomKey& key : block) {
        keys.push_back(store->InternKey(
            key.second.data(), static_cast<int32_t>(key.second.size())));
      }
      for (size_t i = 0; i < block.size(); ++i) {
        store->PrefetchIntern(block[i].first, keys[i]);
      }
      // Ids the block's new atoms get, in block order.
      std::map<AtomKey, AtomId> fresh;
      for (size_t i = 0; i < block.size(); ++i) {
        const AtomKey& key = block[i];
        const auto known = reference_.find(key);
        const AtomId expected =
            known != reference_.end()
                ? known->second
                : fresh.emplace(key, static_cast<AtomId>(reference_.size() +
                                                         fresh.size()))
                      .first->second;
        ASSERT_EQ(store->InternHashed(key.first, key.second.data(),
                                      static_cast<int32_t>(key.second.size()),
                                      keys[i]),
                  expected)
            << Describe(key);
      }
    }
    for (const AtomKey& key : block) Expect(key);
  }

  // Both stores answer Lookup(key) as the reference does.
  void CheckLookup(const AtomKey& key) const {
    const auto it = reference_.find(key);
    const AtomId expected = it == reference_.end() ? -1 : it->second;
    const int32_t arity = static_cast<int32_t>(key.second.size());
    ASSERT_EQ(dense_.Lookup(key.first, key.second.data(), arity), expected)
        << Describe(key);
    ASSERT_EQ(hash_.Lookup(key.first, key.second.data(), arity), expected)
        << Describe(key);
  }

  // Arenas equal across the stores and agree with the reference.
  void CheckArenas() const {
    ASSERT_EQ(dense_.size(), static_cast<int32_t>(reference_.size()));
    EXPECT_EQ(ToVector(dense_.atom_predicates()),
              ToVector(hash_.atom_predicates()));
    EXPECT_EQ(ToVector(dense_.arg_offsets()), ToVector(hash_.arg_offsets()));
    EXPECT_EQ(ToVector(dense_.arg_arena()), ToVector(hash_.arg_arena()));
    for (const auto& [key, id] : reference_) {
      EXPECT_EQ(dense_.PredicateOf(id), key.first);
      EXPECT_EQ(dense_.TupleOf(id), key.second);
      CheckLookup(key);
    }
  }

  GroundAtomStore& dense() { return dense_; }
  const std::map<AtomKey, AtomId>& reference() const { return reference_; }

 private:
  // The reference id of `key`, recording it when new.
  AtomId Expect(const AtomKey& key) {
    return reference_.emplace(key, static_cast<AtomId>(reference_.size()))
        .first->second;
  }

  static std::string Describe(const AtomKey& key) {
    std::string out = "p" + std::to_string(key.first) + "(";
    for (size_t i = 0; i < key.second.size(); ++i) {
      out += (i > 0 ? ", " : "") + std::to_string(key.second[i]);
    }
    return out + ")";
  }

  GroundAtomStore dense_;
  GroundAtomStore hash_;
  std::map<AtomKey, AtomId> reference_;
};

// A constant for a unary atom of `pred`: dense predicates draw the range
// boundaries (range - 1, range, range + 1) and values past the range often.
ConstId DrawConstant(Rng* rng, PredId pred) {
  switch (pred) {
    case kSparsePred:
      // Sparse: a few hundred constants spread over a wide range, plus
      // its boundaries.
      if (rng->Chance(0.1)) {
        return kWideRange - 1 + static_cast<ConstId>(rng->Below(3));
      }
      return static_cast<ConstId>(rng->Below(300)) * 211 % kWideRange;
    default:
      if (rng->Chance(0.15)) {
        return kRange - 1 + static_cast<ConstId>(rng->Below(3));
      }
      return static_cast<ConstId>(rng->Below(2 * kRange));
  }
}

AtomKey DrawAtom(Rng* rng) {
  const PredId pred = static_cast<PredId>(rng->Below(kNumPreds));
  // Mostly unary; predicates 0, 2 and 3 also carry atoms of arity 0, 2
  // and 3 under the same id.
  int32_t arity = 1;
  if (pred != kSparsePred && rng->Chance(0.3)) {
    const int32_t others[] = {0, 2, 3};
    arity = others[rng->Below(3)];
  }
  Tuple tuple;
  for (int32_t i = 0; i < arity; ++i) tuple.push_back(DrawConstant(rng, pred));
  return {pred, tuple};
}

TEST(GroundStoreTest, RandomSequencesMatchReference) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9ULL);
    StoreHarness harness;
    const int ops = 600 + static_cast<int>(rng.Below(1200));
    for (int op = 0; op < ops; ++op) {
      if (op == ops / 3) {
        // Atoms of this predicate already sit in the hash table; they move
        // to the dense table with their ids.
        harness.dense().ReserveDense(kLateDensePred, kRange);
      }
      const uint64_t kind = rng.Below(10);
      if (kind < 4) {
        harness.Intern(DrawAtom(&rng));
      } else if (kind < 6) {
        std::vector<AtomKey> block(1 + rng.Below(16));
        for (AtomKey& key : block) key = DrawAtom(&rng);
        // A block may repeat an atom, and may repeat one interned before.
        if (block.size() > 1 && rng.Chance(0.5)) block.back() = block.front();
        harness.InternBlock(block);
      } else {
        harness.CheckLookup(DrawAtom(&rng));
      }
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(harness.dense().dense_range(kLateDensePred), kRange);
    harness.CheckArenas();
  }
}

// The dense table's edges, deterministically: the last constant in range
// and the first past it, a second reserve that is no larger, and a
// reserve over atoms already interned.
TEST(GroundStoreTest, DenseRangeBoundaries) {
  GroundAtomStore store;
  const Tuple past{kRange};
  const Tuple last{kRange - 1};
  const AtomId a = store.Intern(kDensePred, last);
  const AtomId b = store.Intern(kDensePred, past);
  const AtomId c = store.Intern(kDensePred, Tuple{3, 4});
  EXPECT_EQ(store.dense_range(kDensePred), 0);
  store.ReserveDense(kDensePred, kRange);
  EXPECT_EQ(store.dense_range(kDensePred), kRange);
  EXPECT_EQ(store.dense_range(kHashPred), 0);
  EXPECT_EQ(store.Lookup(kDensePred, last), a);
  EXPECT_EQ(store.Lookup(kDensePred, past), b);
  EXPECT_EQ(store.Lookup(kDensePred, Tuple{3, 4}), c);
  EXPECT_EQ(store.Lookup(kDensePred, Tuple{3}), -1);
  EXPECT_EQ(store.Intern(kDensePred, last), a);
  EXPECT_EQ(store.Intern(kDensePred, past), b);
  const AtomId d = store.Intern(kDensePred, Tuple{0});
  EXPECT_EQ(d, 3);
  EXPECT_EQ(store.Intern(kDensePred, Tuple{0}), d);
  // A smaller or equal range changes nothing; a larger one pulls the
  // atom that was past the old range into the table.
  store.ReserveDense(kDensePred, 8);
  EXPECT_EQ(store.dense_range(kDensePred), kRange);
  store.ReserveDense(kDensePred, 2 * kRange);
  EXPECT_EQ(store.dense_range(kDensePred), 2 * kRange);
  EXPECT_EQ(store.Lookup(kDensePred, past), b);
  EXPECT_EQ(store.Intern(kDensePred, past), b);
  EXPECT_EQ(store.Lookup(kDensePred, Tuple{3, 4}), c);
  EXPECT_EQ(store.size(), 4);
}

}  // namespace
}  // namespace tiebreak
