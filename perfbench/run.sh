#!/usr/bin/env bash
# Builds repaird and the benchmark from this checkout, then runs one
# benchmark workload, or every workload in turn with "all" first:
#
#   bash perfbench/run.sh --workload hosp-oneshot --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh all --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Everything the build writes (binaries, Go
# build cache, daemon logs) goes under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/repaird || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an ftrepair checkout (needs go.mod, cmd/repaird, perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off

go build -o "$out/repaird" ./cmd/repaird
(cd perfbench && go build -o "$out/perfbench" .)

if [[ "${1:-}" == all ]]; then
	shift
	status=0
	for w in hosp-oneshot repaird-jobs repaird-stream; do
		echo "== $w"
		"$out/perfbench" --repaird "$out/repaird" --workdir "$out" "$@" --workload "$w" || status=1
	done
	exit "$status"
fi
exec "$out/perfbench" --repaird "$out/repaird" --workdir "$out" "$@"
