// String interning. Every name in the system (predicate names, constant
// names) is interned once and handled as a dense int32 id afterwards. This
// is the antidote to pointer-linked term trees: all downstream structures
// (atoms, tuples, ground atoms) are flat vectors of ids with value
// semantics, so there is no manual memory management for terms anywhere.
#ifndef TIEBREAK_LANG_SYMBOLS_H_
#define TIEBREAK_LANG_SYMBOLS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace tiebreak {

/// Dense id of a predicate symbol within one Program.
using PredId = int32_t;
/// Dense id of a constant symbol within one Program's constant table.
using ConstId = int32_t;
/// A ground argument tuple.
using Tuple = std::vector<ConstId>;

/// Bidirectional string <-> dense id map. Ids are assigned in insertion
/// order starting at 0 and never change.
///
/// The index is open addressing with linear probing over a power-of-two
/// slot array kept at most half full. A slot holds 32 hash bits and an id,
/// so a probe compares names only on a full hash match, and growing the
/// index never rehashes a name. Intern and Lookup take a string_view and
/// build no std::string unless Intern adds the name.
class SymbolTable {
 public:
  /// Returns the id of `name`, interning it if new.
  int32_t Intern(std::string_view name) {
    const uint32_t hash = Hash(name);
    const int32_t found = Find(name, hash);
    if (found >= 0) return found;
    const int32_t id = size();
    names_.emplace_back(name);
    if (2 * names_.size() > slots_.size()) {
      Grow();
    }
    Place(Slot{hash, id});
    return id;
  }

  /// Returns the id of `name` or -1 when absent.
  int32_t Lookup(std::string_view name) const {
    return Find(name, Hash(name));
  }

  /// The name interned under `id` (CHECKed to be a valid id).
  const std::string& Name(int32_t id) const {
    TIEBREAK_CHECK_GE(id, 0);
    TIEBREAK_CHECK_LT(id, static_cast<int32_t>(names_.size()));
    return names_[id];
  }

  /// Number of interned names; ids are exactly [0, size()).
  int32_t size() const { return static_cast<int32_t>(names_.size()); }

 private:
  struct Slot {
    uint32_t hash = 0;
    int32_t id = -1;  // -1: empty
  };
  static constexpr size_t kMinSlots = 16;

  static uint32_t Hash(std::string_view name) {
    return static_cast<uint32_t>(std::hash<std::string_view>{}(name));
  }

  int32_t Find(std::string_view name, uint32_t hash) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id < 0) return -1;
      if (slot.hash == hash && names_[slot.id] == name) return slot.id;
    }
  }

  // Stores `slot` in the first empty slot of its probe sequence.
  void Place(Slot slot) {
    const size_t mask = slots_.size() - 1;
    size_t i = slot.hash & mask;
    while (slots_[i].id >= 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  // Doubles the slot array and re-places every id by its stored hash.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinSlots : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.id >= 0) Place(slot);
    }
  }

  std::vector<std::string> names_;
  std::vector<Slot> slots_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_LANG_SYMBOLS_H_
