#!/usr/bin/env bash
# Builds the perfbench benchmark from the checkout in the current directory
# and runs it with the given arguments. Every build product, the Go
# build cache included, stays in .bench_build/ under the checkout.
#
#	bash perfbench/run.sh --workload m2_star --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" -ldflags "-X main.commit=$commit" .)
exec "$out/perfbench" "$@"
