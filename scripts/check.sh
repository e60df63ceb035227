#!/usr/bin/env bash
# Tier-1 verification: configure + build (-Wall -Wextra, warnings as
# errors) + full ctest suite + a build of the end-to-end benchmark in
# perfbench/ and one short run of each of its workloads + docs checks. Run
# from anywhere; builds into build-check/ (the benchmark into
# build-check/perfbench/).
#
#   scripts/check.sh [--bench]    --bench additionally runs bench_engine,
#                                 bench_grounding, bench_interpreters,
#                                 bench_storage, bench_sat and bench_query
#                                 and refreshes BENCH_engine.json,
#                                 BENCH_grounding.json (grounding rows at 1
#                                 and 4 threads), BENCH_interpreters.json,
#                                 BENCH_storage.json, BENCH_sat.json and
#                                 BENCH_query.json (query rows at 1 and 4
#                                 threads)
#   scripts/check.sh --tsan       builds everything with
#                                 -DTIEBREAK_SANITIZE=thread into
#                                 build-tsan/ and runs the whole ctest suite
#                                 under ThreadSanitizer
#   scripts/check.sh --asan       the same with AddressSanitizer
#                                 (build-asan/)
#   scripts/check.sh --ubsan      the same with UndefinedBehaviorSanitizer
#                                 (build-ubsan/)
#   scripts/check.sh --docs       only the docs checks: broken relative
#                                 links in *.md, and public-header
#                                 declarations without a doc comment
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

# --------------------------------------------------------------------------
# Docs checks (grep/awk based; no build needed).
# --------------------------------------------------------------------------
check_docs() {
  local failed=0

  # 1. Relative links in markdown must point at existing files. Matches
  #    inline links `](target)`; external (scheme://), mailto and pure
  #    anchor targets are skipped; `path#anchor` checks only the path.
  local md
  while IFS= read -r md; do
    local dir target path
    dir="$(dirname "$md")"
    while IFS= read -r target; do
      [[ -z "$target" ]] && continue
      case "$target" in
        *://*|mailto:*|\#*) continue ;;
      esac
      path="${target%%#*}"
      [[ -z "$path" ]] && continue
      if [[ ! -e "$dir/$path" && ! -e "$repo/$path" ]]; then
        echo "check.sh: broken link in $md -> $target"
        failed=1
      fi
    done < <(grep -oE '\]\([^)[:space:]]+\)' "$md" | sed 's/^](\(.*\))$/\1/')
  done < <(find "$repo" -maxdepth 2 -name '*.md' \
             -not -path "$repo/build*" -not -path "$repo/.git/*")

  # 2. Public headers: every public declaration carries a doc comment.
  #    Grep-based approximation: inside the public section of a class (or at
  #    namespace scope), a declaration line must be directly preceded by a
  #    comment line, a continuation, or another declaration in the same
  #    comment-covered group.
  local header
  for header in src/engine/relation.h src/engine/evaluation.h \
                src/util/thread_pool.h src/lang/database.h \
                src/ground/ground_graph.h src/ground/grounder.h \
                src/core/query_plan.h src/lang/program.h \
                src/lang/symbols.h src/core/tie_breaking.h \
                src/core/certificate.h src/ground/close.h \
                src/ground/ground_scc.h src/core/interpreter_options.h \
                src/core/completion.h src/core/well_founded.h \
                src/core/interpreter_result.h src/core/query.h \
                src/lang/parser.h src/core/stable.h src/core/fixpoint.h \
                src/sat/solver.h; do
    if ! awk -v file="$header" '
      BEGIN { in_private = 0; prev_commented = 0; prev_decl = 0; bad = 0 }
      /^ *private:/ { in_private = 1 }
      /^ *public:/  { in_private = 0; prev_commented = 0; prev_decl = 0; next }
      # Comment lines (and blank lines inside comment runs) arm the flag.
      /^ *\/\// { prev_commented = 1; prev_decl = 0; next }
      /^ *$/ { prev_decl = 0; next }
      {
        if (in_private) { prev_commented = 0; next }
        # A declaration head: starts a member/type at 2-space indent or a
        # free function/struct at column 0, and is not a continuation,
        # closer, macro or using.
        if ($0 ~ /^(  )?[A-Za-z_][A-Za-z0-9_:<>,*& ]*[ &*]([A-Za-z_][A-Za-z0-9_]*)\(/ ||
            $0 ~ /^(  )?(class|struct|enum class) [A-Z]/) {
          if (!prev_commented && !prev_decl) {
            printf "check.sh: undocumented declaration in %s:%d: %s\n",
                   file, NR, $0
            bad = 1
          }
          prev_decl = 1
          next
        }
        # Anything else (continuations, inline bodies, braces, field defs)
        # keeps the declaration group alive — a blank line ends it — and
        # does not re-arm the comment flag.
        prev_commented = 0
      }
      END { exit bad }' "$repo/$header"; then
      failed=1
    fi
  done

  if [[ "$failed" != 0 ]]; then
    echo "check.sh: docs checks FAILED"
    return 1
  fi
  echo "check.sh: docs green"
}

if [[ "${1:-}" == "--docs" ]]; then
  check_docs
  exit 0
fi

# --------------------------------------------------------------------------
# Sanitizer gates: a full build and the whole ctest suite under one
# sanitizer. halt_on_error makes the first report fatal and keeps it
# readable.
# --------------------------------------------------------------------------
case "${1:-}" in
  --tsan) sanitizer=thread options=TSAN_OPTIONS ;;
  --asan) sanitizer=address options=ASAN_OPTIONS ;;
  --ubsan) sanitizer=undefined options=UBSAN_OPTIONS ;;
  *) sanitizer="" ;;
esac
if [[ -n "$sanitizer" ]]; then
  gate="${1#--}"
  build="$repo/build-$gate"
  cmake -B "$build" -S "$repo" -DTIEBREAK_SANITIZE="$sanitizer"
  cmake --build "$build" -j "$(nproc)"
  env "$options=halt_on_error=1" ctest --test-dir "$build" \
    --output-on-failure -j "$(nproc)"
  echo "check.sh: $gate green"
  exit 0
fi

build="$repo/build-check"

cmake -B "$build" -S "$repo" -DTIEBREAK_WERROR=ON
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# perfbench/ compiles the library from src/ in its own project, so a change
# to an API it calls fails here rather than when the benchmark runs.
cmake -B "$build/perfbench" -S "$repo/perfbench" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build/perfbench" -j "$(nproc)" --target perfbench

# perfbench checks every answer it computes and exits non-zero on a wrong
# one, so a one-second run of each workload gates on those checks. solve
# runs traced, which adds its 1-thread calls and compares their models
# with the 4-thread ones.
for workload in solve serve enumerate; do
  trace=0
  [[ "$workload" == solve ]] && trace=1
  log="$build/perfbench/$workload.log"
  if ! "$build/perfbench/perfbench" --workload "$workload" --seed 1 \
         --seconds 1 --trace "$trace" > "$log"; then
    tail -n 20 "$log"
    echo "check.sh: perfbench $workload FAILED"
    exit 1
  fi
  echo "check.sh: perfbench $workload green"
done

check_docs

if [[ "${1:-}" == "--bench" ]]; then
  (cd "$repo" && "$build/bench_engine" BENCH_engine.json &&
     "$build/bench_grounding" BENCH_grounding.json &&
     "$build/bench_interpreters" BENCH_interpreters.json &&
     "$build/bench_storage" BENCH_storage.json &&
     "$build/bench_sat" BENCH_sat.json &&
     "$build/bench_query" BENCH_query.json)
fi

echo "check.sh: all green"
