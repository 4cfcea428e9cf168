#!/bin/sh
# Configure build/ as a Release build with tests and examples off, then
# build each target named on the command line. Run it from the
# repository root:
#
#   tools/ci/build_release.sh icfp-sim
#
# cmake and g++ are installed first on a GitHub Actions runner, and
# anywhere either one is missing.
set -e
if [ "$#" -eq 0 ]; then
  echo "usage: $0 TARGET..." >&2
  exit 2
fi
if [ "${GITHUB_ACTIONS:-}" = true ] || ! command -v cmake >/dev/null ||
   ! command -v g++ >/dev/null; then
  sudo apt-get update
  sudo apt-get install -y cmake g++
fi
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release \
  -DICFP_BUILD_TESTS=OFF \
  -DICFP_BUILD_EXAMPLES=OFF
for target in "$@"; do
  cmake --build build -j --target "$target"
done
