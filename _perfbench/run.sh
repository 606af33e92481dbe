#!/usr/bin/env bash
# Builds the benchmark and verrod from this checkout's sources, then runs one
# workload. Run from anywhere inside a checkout:
#
#   bash _perfbench/run.sh --workload stream-moving --seed 1 --seconds 20 --trace 0
#
# Everything built or written lands in $CARGO_TARGET_DIR (default
# .bench_build) under the checkout root: the Go build cache, the binaries,
# the generated inputs, per-run scratch space and the traced runs' spans.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/verrod" ]; then
	echo "perfbench: $root holds no VERRO sources to build" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GO111MODULE=on
# One pool worker per core, sized by the runtime, as the benchmark is defined.
# The benchmark, its set-up probes and verrod all inherit this.
export GOMAXPROCS=$(nproc)
unset VERRO_WORKERS

(cd "$root" && go build -trimpath -o "$build/bin/verrod" ./cmd/verrod)
(cd "$here" && go build -trimpath -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" -verrod "$build/bin/verrod" -dir "$build" "$@"
