// String interning. Every name in the system (predicate names, constant
// names) is interned once and handled as a dense int32 id afterwards. This
// is the antidote to pointer-linked term trees: all downstream structures
// (atoms, tuples, ground atoms) are flat vectors of ids with value
// semantics, so there is no manual memory management for terms anywhere.
#ifndef TIEBREAK_LANG_SYMBOLS_H_
#define TIEBREAK_LANG_SYMBOLS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
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
class SymbolTable {
 public:
  /// Returns the id of `name`, interning it if new.
  int32_t Intern(std::string_view name) {
    auto it = index_.find(std::string(name));
    if (it != index_.end()) return it->second;
    const int32_t id = static_cast<int32_t>(names_.size());
    names_.emplace_back(name);
    index_.emplace(names_.back(), id);
    return id;
  }

  /// Returns the id of `name` or -1 when absent.
  int32_t Lookup(std::string_view name) const {
    auto it = index_.find(std::string(name));
    return it == index_.end() ? -1 : it->second;
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
  std::vector<std::string> names_;
  std::unordered_map<std::string, int32_t> index_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_LANG_SYMBOLS_H_
