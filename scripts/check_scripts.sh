#!/usr/bin/env bash
# Sanity gate over scripts/*.sh, run by CI alongside genlint: every
# script must parse (bash -n), be executable, and fail fast with
# `set -euo pipefail` — a smoke script that shrugs off a failed curl or
# a dead pipeline reports green on a broken service, which is worse
# than no smoke test at all. It also checks that every native fuzz
# target (func Fuzz… in a _test.go file) is listed, with its package, in
# the fuzz-smoke step of .github/workflows/ci.yml: a target missing
# there never runs in CI.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
for f in scripts/*.sh; do
  if ! bash -n "$f"; then
    echo "$f: syntax error" >&2
    fail=1
  fi
  if ! grep -qE '^set -euo pipefail' "$f"; then
    echo "$f: missing 'set -euo pipefail' (scripts must fail fast)" >&2
    fail=1
  fi
  if [ ! -x "$f" ]; then
    echo "$f: not executable (chmod +x)" >&2
    fail=1
  fi
done

ci=.github/workflows/ci.yml
while IFS=: read -r file decl; do
  name=${decl#func }
  name=${name%%(*}
  pkg=./$(dirname "${file#./}")
  if ! grep -F -- "-fuzz='^${name}\$'" "$ci" | grep -F -- "go test ${pkg} " >/dev/null; then
    echo "$file: fuzz target $name of $pkg is missing from the fuzz-smoke step of $ci" >&2
    fail=1
  fi
done < <(grep -r --include='*_test.go' --exclude-dir=testdata -E '^func Fuzz[A-Za-z0-9_]+\(' .)
exit "$fail"
