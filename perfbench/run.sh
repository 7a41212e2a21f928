#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository; arguments go to the benchmark, for example
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ (or $CARGO_TARGET_DIR when set) in the repository.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root, which must hold the tokencmp module" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$PWD/$out
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
