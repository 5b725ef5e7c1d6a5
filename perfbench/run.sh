#!/usr/bin/env bash
# Builds the perfbench binary from source into .bench_build/ of the
# checkout it is run from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-stream --seed 1 --seconds 10 --trace 0
#
# The Go build and module caches and temporary files stay under
# .bench_build/, so a run writes nothing outside the checkout. The build
# is pure Go (CGO_ENABLED=0): the benchmark needs no C toolchain. Build
# output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
