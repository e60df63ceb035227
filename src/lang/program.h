// A Datalog-with-negation program: predicate declarations (name + arity),
// a constant table, and rules. The EDB/IDB split follows the paper: EDB
// predicates are exactly those that appear in no rule head.
#ifndef TIEBREAK_LANG_PROGRAM_H_
#define TIEBREAK_LANG_PROGRAM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lang/ast.h"
#include "lang/symbols.h"
#include "util/status.h"

namespace tiebreak {

/// Declared facts about one predicate symbol.
struct PredicateInfo {
  std::string name;
  int32_t arity = 0;
};

/// Owns the vocabulary (predicates, constants) and the rule set.
///
/// Construction protocol: declare predicates/constants, add rules, then call
/// Validate() once; EDB flags and per-predicate rule indexes are computed
/// lazily and invalidated by further mutation.
///
/// The constant table is copy-on-write: copies of a program, and programs
/// derived through CopyVocabulary(), share one table, and a program copies
/// it only when it interns a name the shared table lacks. Copying a program
/// therefore costs O(predicates + rules), not O(constants), and every
/// sharer keeps the ConstIds it had. Sharers may be read from any threads;
/// a program interning a new name must not race with another sharer that
/// interns or is destroyed at the same time (the table's reference count is
/// what tells a program it holds the table alone).
class Program {
 public:
  /// A program with this one's predicates (same ids, names and arities)
  /// and constants (same ids; the table is shared, see the class comment)
  /// but no rules: the starting point of every derived program.
  Program CopyVocabulary() const;

  /// Declares (or finds) a predicate. Re-declaring with a different arity is
  /// an error surfaced by Validate(); the first arity wins until then.
  PredId DeclarePredicate(std::string_view name, int32_t arity);

  /// Returns the id of a declared predicate or -1.
  PredId LookupPredicate(std::string_view name) const {
    return predicate_names_.Lookup(name);
  }

  /// Interns a constant symbol. A new name first copies the constant table
  /// when other programs share it; they keep their size and ids.
  ConstId InternConstant(std::string_view name);
  /// Returns the id of a known constant or -1.
  ConstId LookupConstant(std::string_view name) const {
    return constants_->Lookup(name);
  }

  /// Appends a rule. The rule must reference declared predicates; full
  /// validation happens in Validate().
  void AddRule(Rule rule);

  /// Structural validation: arities respected, variable indexes in range,
  /// variable-name vectors consistent. Must pass before the program is fed
  /// to grounding, analysis or evaluation.
  Status Validate() const;

  /// Sizes of the predicate table, the constant table and the rule list.
  int32_t num_predicates() const {
    return static_cast<int32_t>(predicates_.size());
  }
  int32_t num_constants() const { return constants_->size(); }
  int32_t num_rules() const { return static_cast<int32_t>(rules_.size()); }

  /// Declaration, name, constant name and rule accessors; ids are CHECKed.
  const PredicateInfo& predicate(PredId p) const {
    TIEBREAK_CHECK_GE(p, 0);
    TIEBREAK_CHECK_LT(p, num_predicates());
    return predicates_[p];
  }
  const std::string& predicate_name(PredId p) const {
    return predicate(p).name;
  }
  const std::string& constant_name(ConstId c) const {
    return constants_->Name(c);
  }
  const Rule& rule(int32_t r) const {
    TIEBREAK_CHECK_GE(r, 0);
    TIEBREAK_CHECK_LT(r, num_rules());
    return rules_[r];
  }
  const std::vector<Rule>& rules() const { return rules_; }

  /// True iff `p` appears in no rule head (the paper's EDB predicates).
  bool IsEdb(PredId p) const;

  /// Ids of the rules whose head predicate is `p` (empty for EDB).
  const std::vector<int32_t>& RulesWithHead(PredId p) const;

  /// All EDB / IDB predicate ids, ascending.
  std::vector<PredId> EdbPredicates() const;
  std::vector<PredId> IdbPredicates() const;

 private:
  void EnsureHeadIndex() const;

  std::vector<PredicateInfo> predicates_;
  SymbolTable predicate_names_;
  // Shared copy-on-write; see the class comment and InternConstant.
  std::shared_ptr<SymbolTable> constants_ = std::make_shared<SymbolTable>();
  std::vector<Rule> rules_;

  // Lazy caches (invalidated by AddRule/DeclarePredicate).
  mutable bool head_index_valid_ = false;
  mutable std::vector<std::vector<int32_t>> rules_by_head_;
};

}  // namespace tiebreak

#endif  // TIEBREAK_LANG_PROGRAM_H_
