#!/bin/sh
# replay-check: end-to-end gate for the two-phase (resolve/replay) executor
# (DESIGN.md §3l), run by `make replay-check` as part of `make ci`.
#
# Two legs run the same checks: the canonical single-core sweep, and a
# two-core sweep whose multi-core plans replay value-keyed traces.
#
#   1. Parallelism independence: the pruned, residency-cached sweep must
#      write byte-identical CSVs at -j 1 and -j 8 — worker scheduling
#      decides which point resolves a shared trace first, and that choice
#      must never show in the results.
#   2. Replay exactness: every row the cached sweep simulates must be
#      byte-identical to the row an unpruned engine-only sweep
#      (-residency-cache 0, every point runs the full hit/miss recurrence)
#      produces for that point.
#   3. Teeth: a one-cycle replay coefficient skew (-replay-skew 1) must
#      make the comparison fail, and the report must name the CSV column
#      that moved.
#
# The canonical leg's grid is the 240-point benchmark grid (-canonical),
# the same population BENCH_sweep.json is measured on, so the gate covers
# exactly the configuration whose speedup this subsystem exists to
# provide; it must also prune something. The two-core leg sweeps BERT-tiny
# on a two-core small NPU over four SPM sizes, twelve bandwidths and all
# four policies.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
$GO build -o "$dir/sweep" ./cmd/sweep

# leg NAME SWEEP-ARGS... runs checks 1-3 on one sweep grid.
leg() {
    name=$1
    shift
    sweep="$dir/sweep $*"

    # 1. Cached sweep CSVs byte-identical across worker counts.
    $sweep -j 8 -csv "$dir/j8.csv" > /dev/null
    $sweep -j 1 -csv "$dir/j1.csv" > /dev/null
    if cmp -s "$dir/j1.csv" "$dir/j8.csv"; then
        echo "replay-check: $name: cached sweep CSV byte-identical at -j 1 and -j 8"
    else
        echo "replay-check: FAIL: $name: cached sweep differs between -j 1 and -j 8:" >&2
        diff "$dir/j1.csv" "$dir/j8.csv" | head >&2
        exit 1
    fi

    # 2. Cached+pruned simulated rows agree with engine-only unpruned rows.
    $sweep -prune=false -residency-cache 0 -csv "$dir/engine.csv" > /dev/null
    grep ',sim,' "$dir/j8.csv" | sort > "$dir/cached-sim.txt"
    sort "$dir/engine.csv" > "$dir/engine-sorted.txt"
    if ! comm -23 "$dir/cached-sim.txt" "$dir/engine-sorted.txt" | grep -q .; then
        echo "replay-check: $name: replayed rows byte-identical to engine-only rows"
    else
        echo "replay-check: FAIL: $name: cached sweep rows missing from engine-only sweep:" >&2
        comm -23 "$dir/cached-sim.txt" "$dir/engine-sorted.txt" >&2
        exit 1
    fi

    # 3. Teeth: a skewed replay coefficient must be caught by column name.
    $sweep -prune=false -replay-skew 1 -csv "$dir/skewed.csv" > /dev/null
    if cmp -s "$dir/skewed.csv" "$dir/engine.csv"; then
        echo "replay-check: FAIL: $name: -replay-skew 1 left the sweep unchanged (replay path not exercised?)" >&2
        exit 1
    fi
    col=$(awk -F, 'NR==FNR { a[FNR] = $0; next }
        a[FNR] != $0 { n = split(a[FNR], f, ","); for (i = 1; i <= n; i++) if (f[i] != $i) { print i; exit } }' \
        "$dir/engine.csv" "$dir/skewed.csv")
    col=$(head -1 "$dir/engine.csv" | cut -d, -f"$col")
    case "$col" in
    base_cycles|igo_cycles)
        echo "replay-check: $name: injected replay skew caught; first differing column: $col" ;;
    *)
        echo "replay-check: FAIL: $name: replay skew moved unexpected column $col (want base_cycles or igo_cycles)" >&2
        exit 1 ;;
    esac
}

leg canonical -canonical -shard-size 60 -wave-size 30
if ! grep -q ',pruned,' "$dir/j8.csv"; then
    echo "replay-check: FAIL: canonical sweep pruned nothing (gate has no teeth)" >&2
    exit 1
fi
leg two-core -npu small -suite edge -model bert -cores 2 -spm 0.5,1,2,4 -bw 8:128:12:log -policy all \
    -shard-size 48 -wave-size 24
