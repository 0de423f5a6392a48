#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout
# and runs it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload zipf-cached --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache) stays inside the
# checkout; a second call reuses the cache and rebuilds nothing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

# The go command also keeps telemetry counters under the user config
# directory and may create GOPATH; point all of it into the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

# bench/ is a module of its own that imports the repository's packages
# through a replace directive, so the build fails (and this script exits
# non-zero) when the repository around it is missing.
go build -C "$here" -o "$out/scalia-bench" . >&2

cd "$root"
exec "$out/scalia-bench" "$@"
