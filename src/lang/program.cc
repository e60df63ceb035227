#include "lang/program.h"

#include <sstream>

namespace tiebreak {

PredId Program::DeclarePredicate(std::string_view name, int32_t arity) {
  const int32_t existing = predicate_names_.Lookup(name);
  if (existing >= 0) return existing;
  const PredId id = predicate_names_.Intern(name);
  predicates_.push_back(PredicateInfo{std::string(name), arity});
  head_index_valid_ = false;
  return id;
}

Program Program::CopyVocabulary() const {
  Program out;
  out.predicates_ = predicates_;
  out.predicate_names_ = predicate_names_;
  out.constants_ = constants_;
  return out;
}

ConstId Program::InternConstant(std::string_view name) {
  if (constants_.use_count() > 1) {
    const ConstId existing = constants_->Lookup(name);
    if (existing >= 0) return existing;
    constants_ = std::make_shared<SymbolTable>(*constants_);
  }
  return constants_->Intern(name);
}

void Program::AddRule(Rule rule) {
  rules_.push_back(std::move(rule));
  head_index_valid_ = false;
}

namespace {

Status CheckAtomShape(const Program& program, const Atom& atom,
                      int32_t num_variables, const char* where,
                      int32_t rule_index) {
  std::ostringstream ctx;
  ctx << where << " of rule " << rule_index;
  if (atom.predicate < 0 || atom.predicate >= program.num_predicates()) {
    return Status::InvalidArgument("undeclared predicate in " + ctx.str());
  }
  const PredicateInfo& info = program.predicate(atom.predicate);
  if (static_cast<int32_t>(atom.args.size()) != info.arity) {
    std::ostringstream msg;
    msg << "predicate " << info.name << " declared with arity " << info.arity
        << " but used with " << atom.args.size() << " arguments in "
        << ctx.str();
    return Status::InvalidArgument(msg.str());
  }
  for (const Term& term : atom.args) {
    if (term.is_variable()) {
      if (term.index < 0 || term.index >= num_variables) {
        return Status::InvalidArgument("variable index out of range in " +
                                       ctx.str());
      }
    } else {
      if (term.index < 0 || term.index >= program.num_constants()) {
        return Status::InvalidArgument("constant index out of range in " +
                                       ctx.str());
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status Program::Validate() const {
  for (int32_t r = 0; r < num_rules(); ++r) {
    const Rule& rule = rules_[r];
    if (rule.num_variables < 0) {
      return Status::InvalidArgument("negative variable count");
    }
    if (static_cast<int32_t>(rule.variable_names.size()) !=
        rule.num_variables) {
      return Status::InvalidArgument("variable_names size mismatch in rule " +
                                     std::to_string(r));
    }
    Status s = CheckAtomShape(*this, rule.head, rule.num_variables, "head", r);
    if (!s.ok()) return s;
    for (const Literal& lit : rule.body) {
      s = CheckAtomShape(*this, lit.atom, rule.num_variables, "body", r);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

void Program::EnsureHeadIndex() const {
  if (head_index_valid_) return;
  rules_by_head_.assign(predicates_.size(), {});
  for (int32_t r = 0; r < num_rules(); ++r) {
    const PredId head = rules_[r].head.predicate;
    TIEBREAK_CHECK_GE(head, 0);
    TIEBREAK_CHECK_LT(head, num_predicates());
    rules_by_head_[head].push_back(r);
  }
  head_index_valid_ = true;
}

bool Program::IsEdb(PredId p) const {
  EnsureHeadIndex();
  TIEBREAK_CHECK_GE(p, 0);
  TIEBREAK_CHECK_LT(p, num_predicates());
  return rules_by_head_[p].empty();
}

const std::vector<int32_t>& Program::RulesWithHead(PredId p) const {
  EnsureHeadIndex();
  TIEBREAK_CHECK_GE(p, 0);
  TIEBREAK_CHECK_LT(p, num_predicates());
  return rules_by_head_[p];
}

std::vector<PredId> Program::EdbPredicates() const {
  std::vector<PredId> result;
  for (PredId p = 0; p < num_predicates(); ++p) {
    if (IsEdb(p)) result.push_back(p);
  }
  return result;
}

std::vector<PredId> Program::IdbPredicates() const {
  std::vector<PredId> result;
  for (PredId p = 0; p < num_predicates(); ++p) {
    if (!IsEdb(p)) result.push_back(p);
  }
  return result;
}

}  // namespace tiebreak
