#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload t1-agent --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (Go build cache, temporary files,
# the sppd disk store) stays under the build directory: $CARGO_TARGET_DIR
# when set, .bench_build otherwise, relative to the repository root. The
# build needs no network; without the repository's sources it fails.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/sspp-bench" .)
exec "$build/sspp-bench" "$@"
