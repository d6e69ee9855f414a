#!/usr/bin/env sh
# Pre-commit gate: sg-lint (determinism and hygiene rules D1, D2, D4, D5,
# H1, A0) and clang-format --dry-run over the staged C++ files only. Wire it
# up with
#
#   ln -s ../../tools/precommit.sh .git/hooks/pre-commit
#
# Requires a built sglint (any build dir); clang-format is optional and
# skipped with a note if absent. Exits nonzero on any finding so the
# commit is blocked before CI would reject it.
set -u

repo_root=$(git rev-parse --show-toplevel) || exit 2
cd "$repo_root" || exit 2

staged=$(git diff --cached --name-only --diff-filter=ACMR -- \
  '*.cpp' '*.hpp' '*.h' '*.cc' '*.hh' |
  grep -v -e '^tests/sglint_fixtures/' || true)
if [ -z "$staged" ]; then
  echo "precommit: no staged C++ files, nothing to check"
  exit 0
fi

sglint=""
for candidate in build/tools/sglint/sglint build-*/tools/sglint/sglint; do
  if [ -x "$candidate" ]; then
    sglint=$candidate
    break
  fi
done
if [ -z "$sglint" ]; then
  echo "precommit: no built sglint found (looked in build*/tools/sglint/)" >&2
  echo "precommit: run 'cmake --build build --target sglint' first" >&2
  exit 2
fi

status=0

# shellcheck disable=SC2086  # word-splitting the file list is the point
if ! $sglint $staged; then
  echo "precommit: sg-lint found problems" >&2
  status=1
fi

if command -v clang-format > /dev/null 2>&1; then
  # shellcheck disable=SC2086
  if ! clang-format --dry-run --Werror $staged; then
    echo "precommit: clang-format wants changes (run clang-format -i)" >&2
    status=1
  fi
else
  echo "precommit: clang-format not installed, skipping format check"
fi

exit $status
