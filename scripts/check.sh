#!/usr/bin/env sh
# Tier-1 verify on a warnings-clean build: configure with -Wall -Wextra
# -Werror, build everything, run the full test suite. CI runs exactly this.
#
#   ./scripts/check.sh             # plain Release build (unchanged default)
#   ./scripts/check.sh --sanitize  # same suite under ASan+UBSan — the
#                                  # sanitizer CI leg and local devs run the
#                                  # identical script
#   ./scripts/check.sh --label unit   # only tests carrying that ctest label
#                                     # (unit | e2e) — lets a CI matrix shard
#                                     # the suite and gives devs a fast leg
#   ./scripts/check.sh --tsan      # ThreadSanitizer (no ASan) in build-tsan/,
#                                  # running only the tests that drive the
#                                  # thread pool — the CI tsan leg
set -eu

cd "$(dirname "$0")/.."

SANITIZE=0
TSAN=0
LABEL=""
prev=""
for arg in "$@"; do
  if [ "$prev" = "--label" ]; then
    LABEL="$arg"
    prev=""
    continue
  fi
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --label) prev="--label" ;;
    *)
      echo "usage: $0 [--sanitize | --tsan] [--label unit|e2e]" >&2
      exit 2
      ;;
  esac
done
if [ "$prev" = "--label" ]; then
  echo "usage: $0 [--sanitize | --tsan] [--label unit|e2e]" >&2
  exit 2
fi
if [ "$SANITIZE" -eq 1 ] && [ "$TSAN" -eq 1 ]; then
  echo "$0: --sanitize and --tsan cannot share one build" >&2
  exit 2
fi

TESTS=""

if [ "$SANITIZE" -eq 1 ]; then
  # Separate default build dir so sanitized and plain artifacts never mix.
  BUILD_DIR="${BUILD_DIR:-build-sanitize}"
  EXTRA_CMAKE_ARGS="-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all -g"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
elif [ "$TSAN" -eq 1 ]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  EXTRA_CMAKE_ARGS="-DCMAKE_CXX_FLAGS=-fsanitize=thread -g"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
  # The tests whose code paths run work on util::ThreadPool.
  TESTS="^(util_test|engine_test|percentile_test|secretary_test|core_test|dispatch_test|serve_test|scheduler_kernels_test)$"
else
  BUILD_DIR="${BUILD_DIR:-build-check}"
  EXTRA_CMAKE_ARGS=""
fi

if [ -n "$EXTRA_CMAKE_ARGS" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DPOWERSCHED_WERROR=ON \
    "$EXTRA_CMAKE_ARGS"
else
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DPOWERSCHED_WERROR=ON
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
cd "$BUILD_DIR"
set -- --output-on-failure -j "$(nproc)"
if [ -n "$LABEL" ]; then set -- "$@" -L "$LABEL"; fi
if [ -n "$TESTS" ]; then set -- "$@" -R "$TESTS"; fi
ctest "$@"
