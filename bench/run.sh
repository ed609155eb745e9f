#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh -workload predict-float -seed 1 -seconds 15 -trace 0
#   bash bench/run.sh -seed 1 -out results/a          # all five workloads
#   bash bench/run.sh compare results/a results/b
#
# Every file the build and the run write (Go build cache, the prid and
# bench binaries, model artifacts) stays under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/prid" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench: run from the repository root (needs go.mod, cmd/prid and bench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" -root "$root" "$@"
