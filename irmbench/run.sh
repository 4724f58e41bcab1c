#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash irmbench/run.sh --workload edit-loop --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root:
# the binary, the go build cache, and the benchmark's scratch stores.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ]; then
	echo "irmbench: $root does not hold the repro module the benchmark measures" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
(cd "$here" && go build -buildvcs=false -o "$out/irmbench" .)

cd "$root"
exec "$out/irmbench" "$@"
