#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags.
# Run from the repository root:
#
#   bash benchmark/run.sh -workload serve-mixed -seed 1 -seconds 20 -trace 0
#
# The binary, the Go build cache, the compiler's temporary files and Go's
# telemetry counters (kept under the user config directory) go to
# $CARGO_TARGET_DIR (default .bench_build), so that building and running
# write nothing outside the checkout. Go needs these paths absolute, which
# is why a plain `go run` cannot be the benchmark's command.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go build -C benchmark -o "$out/igobench" .
exec "$out/igobench" "$@"
