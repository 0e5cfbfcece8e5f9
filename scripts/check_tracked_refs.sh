#!/usr/bin/env sh
# Fails when a bench fixture exists only in this tree, so it passes locally
# and is missing on every clean checkout:
#   * a file under bench/golden/ or bench/baselines/ that git does not
#     track (never added, or hidden by an ignore rule);
#   * a literal bench/golden/* or bench/baselines/* path, named by a
#     tracked test, doc or CI file, that git does not track.
#
#   ./scripts/check_tracked_refs.sh    # exit 0, or 1 naming each file
#
# Templated names ($preset.csv, "/bench/golden/" + name, BENCH_*.json,
# {e1,e5}.csv) are skipped: the test or CI step that reads such a file
# already fails by name on a clean checkout that lacks it.
set -eu

cd "$(dirname "$0")/.."

FIXTURES="bench/golden bench/baselines"
SCANNED="tests docs README.md bench/golden/README.md .github/workflows/ci.yml"

status=0
# shellcheck disable=SC2086  # word splitting of the path lists is intended
local_only=$({
  git ls-files --others --exclude-standard -- $FIXTURES
  git ls-files --others --ignored --exclude-standard -- $FIXTURES
} | sort -u)
for path in $local_only; do
  echo "check_tracked_refs: $path is not tracked by git" >&2
  status=1
done

# shellcheck disable=SC2086
refs=$(git ls-files -z -- $SCANNED |
  xargs -0 grep -ohE 'bench/(golden|baselines)/[A-Za-z0-9_.${}*-]+' |
  grep -v '[$*{}]' | sed 's/[.]*$//' | grep -v '/$' | sort -u)
for ref in $refs; do
  if ! git ls-files --error-unmatch -- "$ref" >/dev/null 2>&1; then
    echo "check_tracked_refs: $ref is referenced but not tracked by git" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_tracked_refs: every bench fixture and referenced path is tracked"
fi
exit "$status"
