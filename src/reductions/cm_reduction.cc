#include "reductions/cm_reduction.h"

#include <string>
#include <unordered_map>
#include <utility>

namespace tiebreak {

namespace {

// Incremental rule assembly with named rule-local variables.
class RuleBuilder {
 public:
  Term Var(const std::string& name) {
    auto [it, inserted] =
        vars_.emplace(name, static_cast<int32_t>(vars_.size()));
    if (inserted) rule_.variable_names.push_back(name);
    return Term::Variable(it->second);
  }

  void Head(PredId pred, std::vector<Term> args) {
    rule_.head = Atom{pred, std::move(args)};
  }

  void Add(PredId pred, std::vector<Term> args, bool positive = true) {
    rule_.body.push_back(Literal{Atom{pred, std::move(args)}, positive});
  }

  Rule Build() {
    rule_.num_variables = static_cast<int32_t>(vars_.size());
    return std::move(rule_);
  }

 private:
  Rule rule_;
  std::unordered_map<std::string, int32_t> vars_;
};

// Appends the [X = i] chain (zero(A0), succ(A0, A1), ..., succ(A_{i-1}, X))
// to `builder` and returns the term bound to the value i. `tag` keeps the
// chain variables of multiple chains in one rule distinct.
Term ChainEquals(RuleBuilder* builder, const CmReduction& handles, int32_t i,
                 const std::string& target, const std::string& tag) {
  if (i == 0) {
    const Term x = builder->Var(target);
    builder->Add(handles.zero, {x});
    return x;
  }
  Term prev = builder->Var("A" + tag + "0");
  builder->Add(handles.zero, {prev});
  for (int32_t step = 1; step < i; ++step) {
    Term next = builder->Var("A" + tag + std::to_string(step));
    builder->Add(handles.succ, {prev, next});
    prev = next;
  }
  const Term x = builder->Var(target);
  builder->Add(handles.succ, {prev, x});
  return x;
}

// Emits the count-advance rule for one counter under one transition.
void EmitCountRule(Program* program, const CmReduction& handles,
                   PredId count_pred, int32_t s, bool z1, bool z2,
                   int32_t delta, const char* counter_var) {
  RuleBuilder rb;
  const Term t = rb.Var("T");
  const Term tn = rb.Var("Tn");
  const Term s_var = rb.Var("S");
  const Term c1 = rb.Var("C1");
  const Term c2 = rb.Var("C2");
  const Term c = rb.Var(counter_var);  // aliases C1 or C2

  rb.Add(handles.state, {t, s_var});
  rb.Add(handles.count1, {t, c1});
  rb.Add(handles.count2, {t, c2});
  rb.Add(handles.succ, {t, tn});
  ChainEquals(&rb, handles, s, "S", "s");
  rb.Add(handles.zero, {c1}, /*positive=*/z1);
  rb.Add(handles.zero, {c2}, /*positive=*/z2);

  Term next_value = c;
  if (delta == 1) {
    next_value = rb.Var("Cnext");
    rb.Add(handles.succ, {c, next_value});
  } else if (delta == -1) {
    next_value = rb.Var("Cprev");
    rb.Add(handles.succ, {next_value, c});
  }
  rb.Head(count_pred, {tn, next_value});
  program->AddRule(rb.Build());
}

}  // namespace

CmReduction CounterMachineToProgram(const CounterMachine& machine) {
  CmReduction handles;
  Program& program = handles.program;
  handles.zero = program.DeclarePredicate("zero", 1);
  handles.succ = program.DeclarePredicate("succ", 2);
  handles.less = program.DeclarePredicate("less", 2);
  handles.state = program.DeclarePredicate("state", 2);
  handles.count1 = program.DeclarePredicate("count1", 2);
  handles.count2 = program.DeclarePredicate("count2", 2);
  handles.p = program.DeclarePredicate("p", 0);

  // Initialization: the time-0 configuration.
  {
    RuleBuilder rb;
    const Term t = rb.Var("T"), s = rb.Var("S");
    rb.Add(handles.zero, {t});
    rb.Add(handles.zero, {s});
    rb.Head(handles.state, {t, s});
    program.AddRule(rb.Build());
  }
  for (PredId count : {handles.count1, handles.count2}) {
    RuleBuilder rb;
    const Term t = rb.Var("T"), c = rb.Var("C");
    rb.Add(handles.zero, {t});
    rb.Add(handles.zero, {c});
    rb.Head(count, {t, c});
    program.AddRule(rb.Build());
  }

  // Transition rules: per non-halting state and zero-test combination.
  for (int32_t s = 0; s < machine.halt_state(); ++s) {
    for (bool z1 : {false, true}) {
      for (bool z2 : {false, true}) {
        const CmAction& action = machine.Action(s, z1, z2);
        // STATE rule.
        {
          RuleBuilder rb;
          const Term t = rb.Var("T");
          const Term tn = rb.Var("Tn");
          const Term s_var = rb.Var("S");
          const Term c1 = rb.Var("C1");
          const Term c2 = rb.Var("C2");
          rb.Add(handles.state, {t, s_var});
          rb.Add(handles.count1, {t, c1});
          rb.Add(handles.count2, {t, c2});
          rb.Add(handles.succ, {t, tn});
          ChainEquals(&rb, handles, s, "S", "s");
          rb.Add(handles.zero, {c1}, /*positive=*/z1);
          rb.Add(handles.zero, {c2}, /*positive=*/z2);
          const Term s_next =
              ChainEquals(&rb, handles, action.next_state, "Snext", "t");
          rb.Head(handles.state, {tn, s_next});
          program.AddRule(rb.Build());
        }
        EmitCountRule(&program, handles, handles.count1, s, z1, z2,
                      action.delta1, "C1");
        EmitCountRule(&program, handles, handles.count2, s, z1, z2,
                      action.delta2, "C2");
      }
    }
  }

  // The troublesome rule: p <- ¬p, state(T, S), [S = h].
  {
    RuleBuilder rb;
    rb.Add(handles.p, {}, /*positive=*/false);
    const Term t = rb.Var("T");
    const Term s = rb.Var("S");
    rb.Add(handles.state, {t, s});
    ChainEquals(&rb, handles, machine.halt_state(), "S", "h");
    rb.Head(handles.p, {});
    program.AddRule(rb.Build());
  }
  // Escape rules for degenerate EDB structures.
  {
    RuleBuilder rb;  // p <- succ(X, Y), ¬less(X, Y)
    const Term x = rb.Var("X"), y = rb.Var("Y");
    rb.Add(handles.succ, {x, y});
    rb.Add(handles.less, {x, y}, /*positive=*/false);
    rb.Head(handles.p, {});
    program.AddRule(rb.Build());
  }
  {
    RuleBuilder rb;  // p <- succ(X, Y), less(Y, Z), ¬less(X, Z)
    const Term x = rb.Var("X"), y = rb.Var("Y"), z = rb.Var("Z");
    rb.Add(handles.succ, {x, y});
    rb.Add(handles.less, {y, z});
    rb.Add(handles.less, {x, z}, /*positive=*/false);
    rb.Head(handles.p, {});
    program.AddRule(rb.Build());
  }
  {
    RuleBuilder rb;  // p <- state(T, S), state(T, S2), [S2 = h], less(S, S2)
    const Term t = rb.Var("T"), s = rb.Var("S");
    rb.Add(handles.state, {t, s});
    const Term s2 = rb.Var("S2");
    rb.Add(handles.state, {t, s2});
    ChainEquals(&rb, handles, machine.halt_state(), "S2", "h");
    rb.Add(handles.less, {s, s2});
    rb.Head(handles.p, {});
    program.AddRule(rb.Build());
  }

  TIEBREAK_CHECK(program.Validate().ok());
  return handles;
}

Result<Database> NaturalDatabase(CmReduction* reduction, int32_t t) {
  if (t < 0) {
    return Status::InvalidArgument("time bound must be nonnegative, got " +
                                   std::to_string(t));
  }
  Program& program = reduction->program;
  std::vector<ConstId> numbers;
  numbers.reserve(t + 1);
  for (int32_t i = 0; i <= t; ++i) {
    numbers.push_back(program.InternConstant(std::to_string(i)));
  }
  Database database(program);
  database.Insert(reduction->zero, {numbers[0]});
  for (int32_t i = 0; i < t; ++i) {
    database.Insert(reduction->succ, {numbers[i], numbers[i + 1]});
  }
  for (int32_t i = 0; i <= t; ++i) {
    for (int32_t j = i + 1; j <= t; ++j) {
      database.Insert(reduction->less, {numbers[i], numbers[j]});
    }
  }
  return database;
}

Program UniformTotalityTransform(const Program& program) {
  Program out = program.CopyVocabulary();
  const PredId q = out.DeclarePredicate("q_total", 0);

  // Every original rule gets ¬q_total appended.
  for (const Rule& rule : program.rules()) {
    Rule guarded = rule;
    guarded.body.push_back(Literal{Atom{q, {}}, false});
    out.AddRule(std::move(guarded));
  }
  // q_total <- Q(z1, ..., zk), q_total for every IDB predicate Q of Π.
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    if (program.IsEdb(p)) continue;
    Rule rule;
    const int32_t arity = program.predicate(p).arity;
    std::vector<Term> args;
    for (int32_t i = 0; i < arity; ++i) {
      args.push_back(Term::Variable(i));
      rule.variable_names.push_back("Z" + std::to_string(i));
    }
    rule.num_variables = arity;
    rule.head = Atom{q, {}};
    rule.body.push_back(Literal{Atom{p, std::move(args)}, true});
    rule.body.push_back(Literal{Atom{q, {}}, true});
    out.AddRule(std::move(rule));
  }
  TIEBREAK_CHECK(out.Validate().ok());
  return out;
}

}  // namespace tiebreak
