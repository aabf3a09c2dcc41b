#!/usr/bin/env bash
# Builds the perfbench program from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dgefa --seed 1 --seconds 35 --trace 0
#
# The binary and every Go cache land in .bench_build/ under the current
# directory, so a run reads and writes nothing outside the checkout.
# Without the fortd module one directory up the build fails and the
# script exits non-zero before printing a result.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "$0")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOMODCACHE=$build/go-path/pkg/mod \
	XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache TMPDIR=$build/tmp GOTMPDIR=$build/tmp \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
