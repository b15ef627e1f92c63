#!/usr/bin/env bash
# Builds the benchmark driver and runs it from the repository root.
# Usage: bash sslbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build output, including the Go build cache, stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C sslbench build -o "$out/sslbench" .
exec "$out/sslbench" -root "$root" -out "$out" "$@"
