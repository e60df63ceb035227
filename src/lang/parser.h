// Text format for Datalog¬ programs and databases.
//
// Program syntax (one statement per '.', '%' comments to end of line):
//
//   win(X) :- move(X, Y), not win(Y).
//   p :- not q.                 % zero-arity atoms need no parentheses
//   seed(a).                    % empty-body rule (a program-level fact)
//
// Identifier conventions (standard Datalog): an argument identifier starting
// with an uppercase letter or '_' is a variable; anything else (lowercase
// identifiers, numbers) is a constant. Predicate names may be any
// identifier except the keyword 'not'. '!' is accepted as a synonym for
// 'not'.
//
// Database syntax: a sequence of ground facts,
//
//   move(a, b).  move(b, a).  p.
//
// Facts may mention predicates unknown to the program; those are implicitly
// declared (with the observed arity) and are EDB by construction.
//
// All three entry points read the text in one pass: a pull lexer hands
// out tokens as views into the text, one at a time, to one grammar. Facts
// go straight into per-predicate flat rows; no fact builds an Atom.
//
// Errors: every malformed text fails with INVALID_ARGUMENT and a message
// that starts "line N: " (a query pattern that does not start with a
// known predicate's name quotes the pattern instead). The first error in
// reading order is the one reported: a lexical error (an unexpected
// character, a ':' without '-') is reported where it stands, so a syntax
// error earlier in the text wins over it.
#ifndef TIEBREAK_LANG_PARSER_H_
#define TIEBREAK_LANG_PARSER_H_

#include <string_view>

#include "lang/database.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {

/// Parses a program. Predicates are declared implicitly on first use, with
/// consistent-arity enforcement; the result has been Validate()d.
Result<Program> ParseProgram(std::string_view text);

/// Parses a database of ground facts against `program`, implicitly declaring
/// unknown predicates (which therefore become EDB) in first-use order once
/// the whole text has parsed. `program` is mutated only by interning
/// constants / declaring new predicates. On error no predicate is declared;
/// constants interned before the error may remain in the constant table,
/// but no database mentions them, so they do not enter the universe U.
/// Fact order and repetition do not matter: each predicate's facts load
/// with one sort, O(n log n) for n facts.
Result<Database> ParseDatabase(std::string_view text, Program* program);

/// A single parsed atom with variables, for queries (core/query.h).
struct AtomPattern {
  Atom atom;
  /// Names of the pattern's variables in first-occurrence order; Term
  /// variable indexes refer into this vector.
  std::vector<std::string> variable_names;
};

/// Parses one atom such as "win(X)", "t(a, Y)" or "p" (optionally ending in
/// '.'). Every malformed input — unknown predicate, arity mismatch, bad
/// token, trailing garbage — fails with INVALID_ARGUMENT; no CHECK is
/// reachable from pattern text. The predicate must already be declared in
/// `program`; an unknown predicate is rejected before parsing, so the
/// error path never declares it. Mutates `program` only by interning the
/// pattern's constants.
Result<AtomPattern> ParseAtomPattern(std::string_view text, Program* program);

}  // namespace tiebreak

#endif  // TIEBREAK_LANG_PARSER_H_
