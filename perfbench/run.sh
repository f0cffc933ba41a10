#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --workload all [--seed <n>] [--seconds <s>]
#
# "all" runs every workload untraced and traced and fails if any run does.
# Build outputs, the Go build cache and run outputs stay in .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

if [[ "${1:-}" == "--workload" && "${2:-}" == "all" ]]; then
	shift 2
	status=0
	for w in codesign-cold codesign-warm fleet-2w; do
		for t in 0 1; do
			"$build/bin/perfbench" --workload "$w" --trace "$t" "$@" || status=1
		done
	done
	exit "$status"
fi
exec "$build/bin/perfbench" "$@"
