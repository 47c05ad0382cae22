#!/usr/bin/env bash
# Builds divmaxd and the benchmark driver from this checkout into
# .bench_build/, then runs the driver with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload churn_d128 --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/divmaxd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a divmax checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Keep every file the Go toolchain writes inside the checkout, and never
# reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/divmaxd" ./cmd/divmaxd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@" -divmaxd "$out/divmaxd" -work "$out/runs"
