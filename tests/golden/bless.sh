#!/bin/sh
# Re-record every golden file from the current build: runs each
# GoldenOutput ctest with ND_BLESS set, which makes CheckGolden.cmake
# write the program's stdout to tests/golden/<golden>.txt instead of
# comparing. The list of goldens lives in CMake only (add_nd_golden).
#
#   tests/golden/bless.sh [BUILD_DIR]    # default: build
#
# Build first. Review the result with `git diff tests/golden` and
# explain every changed file in EXPERIMENTS.md.
set -eu
build=${1:-build}
ND_BLESS=1 ctest --test-dir "$build" -L golden --output-on-failure
