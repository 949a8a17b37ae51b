#!/usr/bin/env bash
# Builds the rgpdOS wall-clock benchmark from source and runs it.
#
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload clinic --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the per-run result and span files all
# go under .bench_build/ in the checkout, so the script reads and writes
# nothing outside it apart from the Go toolchain itself. Without the
# repository's go.mod and internal/ tree the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "perfbench: run from the repository root (go.mod and internal/core not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/rgpdbench" .)
exec "$out/rgpdbench" -root "$root" "$@"
