// tiebreak CLI: run the paper's analyses and semantics from the shell.
//
//   example_cli <command> <program-file> [database-file] [options]
//
// Commands:
//   analyze    structural report: stratified / call-consistent / structural
//              (nonuniform) totality / useless predicates
//   wf         well-founded model
//   tb         pure tie-breaking model            [--seed=N]
//   wftb       well-founded tie-breaking model    [--seed=N]
//   fixpoints  enumerate fixpoints                [--limit=N]
//   stable     enumerate stable models            [--limit=N]
//              (at most N, default 20; --limit=0 lists them all)
//   witness    Theorem 2/3 witnesses (when the program is not structurally
//              total) with an UNSAT confirmation
//   query      evaluate a pattern against the WFTB model
//              [--pattern="win(X)"] [--seed=N]
//   dot        DOT of the program graph (and ground graph when a database
//              is given) to stdout
//
// Program/database files use the Datalog¬ text format of lang/parser.h.
// --seed and --limit take non-negative decimal integers. An unknown
// command, any other --seed or --limit value, or `query` without a
// pattern exits 2 before any file is read, with nothing on stdout.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/completion.h"
#include "core/dot.h"
#include "core/query.h"
#include "core/report.h"
#include "core/stable.h"
#include "core/stratification.h"
#include "core/structural_totality.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "core/witness.h"
#include "ground/grounder.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "util/strings.h"

using namespace tiebreak;

namespace {

// Every command main() runs.
constexpr std::string_view kCommands[] = {
    "analyze", "wf",      "tb",    "wftb", "fixpoints",
    "stable",  "witness", "query", "dot"};

int Usage() {
  std::fprintf(stderr,
               "usage: example_cli <analyze|wf|tb|wftb|fixpoints|stable|"
               "witness|query|dot> <program-file> [database-file] "
               "[--seed=N] [--limit=N] [--pattern=\"pred(X, ...)\"]\n");
  return 2;
}

// Parses all of `text` as a non-negative decimal integer: no sign, no
// spaces, no trailing characters, no overflow.
template <typename Int>
bool ParseCount(std::string_view text, Int* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && stop == end;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void PrintModel(const Program& program, const GroundGraph& graph,
                const InterpreterResult& result) {
  std::printf("%s model (%d iterations, %d ties broken)\n",
              result.total ? "total" : "PARTIAL", result.iterations,
              result.ties_broken);
  std::printf("%s", ModelSummary(program, graph, result.values).c_str());
  std::printf("true atoms:\n");
  for (const std::string& name :
       TrueAtomNames(program, graph, result.values)) {
    std::printf("  %s\n", name.c_str());
  }
  if (!result.total) {
    std::printf("undefined atoms:\n");
    for (AtomId a = 0; a < graph.num_atoms(); ++a) {
      if (result.values[a] == Truth::kUndef) {
        std::printf("  %s\n",
                    GroundAtomToString(program, graph.atoms().PredicateOf(a),
                                       graph.atoms().TupleOf(a))
                        .c_str());
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  uint64_t seed = 1;
  int64_t limit = 20;
  std::string database_path;
  std::string pattern;
  for (int i = 3; i < argc; ++i) {
    if (StartsWith(argv[i], "--seed=")) {
      if (!ParseCount(argv[i] + 7, &seed)) return Usage();
    } else if (StartsWith(argv[i], "--limit=")) {
      if (!ParseCount(argv[i] + 8, &limit)) return Usage();
    } else if (StartsWith(argv[i], "--pattern=")) {
      pattern = argv[i] + 10;
    } else if (database_path.empty()) {
      database_path = argv[i];
    } else {
      return Usage();
    }
  }
  if (std::find(std::begin(kCommands), std::end(kCommands), command) ==
      std::end(kCommands)) {
    return Usage();
  }
  if (command == "query" && pattern.empty()) {
    std::fprintf(stderr, "query needs --pattern=\"pred(X, ...)\"\n");
    return 2;
  }

  std::string program_text;
  if (!ReadFile(argv[2], &program_text)) {
    std::fprintf(stderr, "cannot read program file %s\n", argv[2]);
    return 1;
  }
  Result<Program> parsed = ParseProgram(program_text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  Program program = std::move(parsed).value();
  std::string database_text;
  if (!database_path.empty() && !ReadFile(database_path, &database_text)) {
    std::fprintf(stderr, "cannot read database file %s\n",
                 database_path.c_str());
    return 1;
  }
  Result<Database> parsed_db = ParseDatabase(database_text, &program);
  if (!parsed_db.ok()) {
    std::fprintf(stderr, "database parse error: %s\n",
                 parsed_db.status().ToString().c_str());
    return 1;
  }
  Database database = std::move(parsed_db).value();

  if (command == "analyze") {
    std::printf("predicates: %d (%zu EDB), rules: %d\n",
                program.num_predicates(), program.EdbPredicates().size(),
                program.num_rules());
    std::printf("stratified:                      %s\n",
                IsStratified(program) ? "yes" : "no");
    std::printf("call-consistent:                 %s\n",
                IsCallConsistent(program) ? "yes" : "no");
    std::printf("structurally total (Thm 2):      %s\n",
                IsStructurallyTotal(program) ? "yes" : "no");
    std::printf("structurally nonunif. total (3): %s\n",
                IsStructurallyNonuniformlyTotal(program) ? "yes" : "no");
    const auto useless = UselessPredicates(program);
    std::string useless_names;
    for (PredId p = 0; p < program.num_predicates(); ++p) {
      if (useless[p]) useless_names += " " + program.predicate_name(p);
    }
    std::printf("useless predicates:%s\n",
                useless_names.empty() ? " (none)" : useless_names.c_str());
    const auto components = AnalyzeComponents(program);
    std::printf("recursive components of G(program): %zu\n",
                components.size());
    for (const ComponentReport& report : components) {
      std::string members;
      for (PredId p : report.predicates) {
        members += " " + program.predicate_name(p);
      }
      const char* kind =
          report.kind == ComponentReport::Kind::kPositive ? "positive"
          : report.kind == ComponentReport::Kind::kTie    ? "tie"
                                                          : "ODD CYCLE";
      std::printf("  [%s, %d negative edge(s)]%s\n", kind,
                  report.internal_negative_edges, members.c_str());
    }
    return 0;
  }

  if (command == "witness") {
    for (auto [label, builder] :
         {std::pair{"Theorem 2 (unary)", &BuildTheorem2UnaryWitness},
          std::pair{"Theorem 3 (binary)", &BuildTheorem3BinaryWitness}}) {
      Result<WitnessInstance> witness = builder(program);
      if (!witness.ok()) {
        std::printf("%s: %s\n", label, witness.status().ToString().c_str());
        continue;
      }
      std::printf("%s — cycle through [%s]\n%s", label,
                  Join(witness->cycle_predicates, " -> ").c_str(),
                  ProgramToString(witness->program).c_str());
      std::printf("database:\n%s",
                  DatabaseToString(witness->program, witness->database)
                      .c_str());
      GroundingResult g = Ground(witness->program, witness->database).value();
      std::printf("fixpoint exists: %s\n\n",
                  HasFixpoint(witness->program, witness->database, g.graph)
                      ? "yes (UNEXPECTED)"
                      : "no (witness confirmed)");
    }
    return 0;
  }

  if (command == "dot" && database_path.empty()) {
    std::printf("%s", ProgramGraphToDot(program).c_str());
    return 0;
  }

  Result<GroundingResult> ground = Ground(program, database);
  if (!ground.ok()) {
    std::fprintf(stderr, "grounding failed: %s\n",
                 ground.status().ToString().c_str());
    return 1;
  }
  std::printf("ground graph: %d atoms, %d rule nodes\n",
              ground->graph.num_atoms(), ground->graph.num_rules());

  if (command == "dot") {
    const InterpreterResult wf = WellFounded(program, database, ground->graph);
    std::printf("%s",
                GroundGraphToDot(program, ground->graph, &wf.values).c_str());
    return 0;
  }
  if (command == "wf") {
    PrintModel(program, ground->graph,
               WellFounded(program, database, ground->graph));
    return 0;
  }
  if (command == "tb" || command == "wftb") {
    RandomChoicePolicy policy(seed);
    PrintModel(program, ground->graph,
               TieBreaking(program, database, ground->graph,
                           command == "tb" ? TieBreakingMode::kPure
                                           : TieBreakingMode::kWellFounded,
                           &policy));
    return 0;
  }
  if (command == "query") {
    RandomChoicePolicy policy(seed);
    const InterpreterResult wftb =
        TieBreaking(program, database, ground->graph,
                    TieBreakingMode::kWellFounded, &policy);
    Result<QueryResult> result =
        EvaluateQuery(&program, ground->graph, wftb.values, pattern);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    auto print_bindings = [&](const char* label,
                              const std::vector<Tuple>& bindings) {
      std::printf("%s (%zu):\n", label, bindings.size());
      for (const Tuple& binding : bindings) {
        std::string row;
        for (size_t i = 0; i < binding.size(); ++i) {
          if (i > 0) row += ", ";
          row += result->variables[i] + "=" +
                 program.constant_name(binding[i]);
        }
        std::printf("  [%s]\n", row.c_str());
      }
    };
    print_bindings("true", result->true_bindings);
    if (!result->undefined_bindings.empty()) {
      print_bindings("undefined (tie-breaking got stuck)",
                     result->undefined_bindings);
    }
    return 0;
  }
  if (command == "fixpoints" || command == "stable") {
    FixpointSearch search(program, database, ground->graph);
    int64_t shown = 0;
    while (limit == 0 || shown < limit) {
      auto model = search.Next();
      if (!model.has_value()) break;
      if (command == "stable" &&
          !IsStable(program, database, ground->graph, *model)) {
        continue;
      }
      ++shown;
      std::printf("%s #%lld: {%s}\n",
                  command == "stable" ? "stable model" : "fixpoint",
                  static_cast<long long>(shown),
                  Join(TrueAtomNames(program, ground->graph, *model), ", ")
                      .c_str());
    }
    if (shown == 0) std::printf("none\n");
    return 0;
  }
  return Usage();
}
