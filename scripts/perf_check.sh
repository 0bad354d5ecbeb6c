#!/bin/sh
# perf-check: the perf-regression gate, run by `make perf-check` as part of
# `make ci`. Regenerates the machine-readable benchmark artifacts into a
# temporary directory and diffs them against the committed baselines with
# cmd/igostat:
#
#   - wall-clock-derived leaves (ns_op, mb_s, points_per_sec, wall_seconds)
#     get an effectively-open tolerance: CI runs one benchmark iteration,
#     so timing is noise;
#   - allocs/op gets a 0.1% relative tolerance: 0.1% of the engine rows'
#     54/0 allocs is less than one, so a single new allocation on the
#     engine's hot path fails CI (each row runs one untimed warm pass
#     first, so the count is the same in every process at 1x), while a
#     row with thousands of allocs would absorb a few allocations of
#     runner-pool and GC bookkeeping that land nondeterministically;
#   - everything else — sweep point/simulated/frontier counts, pruned
#     fraction — gates at exactly zero. Move a number deliberately by
#     regenerating the baseline (`make bench-json`) in the same change.
#
# The negative path is checked too: a baseline with one extra allocation
# must make igostat exit non-zero and name allocs_op, proving the gate has
# teeth.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

$GO run ./cmd/benchjson -benchtime 1x -o "$dir/BENCH_compiled.json" -sweep-o "$dir/BENCH_sweep.json" -serve-o "$dir/BENCH_serve.json" > /dev/null

TOL='wall=100000%,allocs_op=0.1%'
for f in BENCH_compiled.json BENCH_sweep.json BENCH_serve.json; do
    if $GO run ./cmd/igostat diff "$f" "$dir/$f" -tol "$TOL"; then
        echo "perf-check: $f matches the committed baseline"
    else
        echo "perf-check: FAIL: $f regressed vs the committed baseline" >&2
        exit 1
    fi
done

# Gate-has-teeth check: inject one extra alloc/op into a copy of the fresh
# artifact and require igostat to reject it, naming the metric.
awk '!done && /"allocs_op"/ { sub(/: [0-9]+/, ": 1000000"); done=1 } { print }' \
    "$dir/BENCH_compiled.json" > "$dir/BENCH_bad.json"
if out=$($GO run ./cmd/igostat diff "$dir/BENCH_compiled.json" "$dir/BENCH_bad.json" -tol "$TOL" 2>&1); then
    echo "perf-check: FAIL: injected alloc regression passed the gate" >&2
    exit 1
fi
if ! printf '%s\n' "$out" | grep -q 'allocs_op'; then
    echo "perf-check: FAIL: regression report does not name allocs_op:" >&2
    printf '%s\n' "$out" >&2
    exit 1
fi
echo "perf-check: injected alloc regression caught and named"
