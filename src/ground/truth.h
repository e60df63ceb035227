// Three-valued truth for partial models.
#ifndef TIEBREAK_GROUND_TRUTH_H_
#define TIEBREAK_GROUND_TRUTH_H_

#include <cstdint>

namespace tiebreak {

/// Truth value of a ground atom in a (partial) model.
enum class Truth : int8_t {
  kFalse = -1,
  kUndef = 0,
  kTrue = 1,
};

inline const char* TruthName(Truth t) {
  switch (t) {
    case Truth::kFalse:
      return "false";
    case Truth::kUndef:
      return "undef";
    case Truth::kTrue:
      return "true";
  }
  return "?";
}

}  // namespace tiebreak

#endif  // TIEBREAK_GROUND_TRUTH_H_
