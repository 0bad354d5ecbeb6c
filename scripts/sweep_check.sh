#!/bin/sh
# sweep-check: end-to-end gates for the design-space exploration subsystem
# (cmd/sweep on internal/dse), run by `make sweep-check` as part of `make ci`.
#
#   1. Pruned-vs-unpruned equivalence: every row the pruned sweep simulates
#      must be byte-identical to the unpruned sweep's row for that point.
#   2. Checkpoint kill+resume: a sweep stopped after one shard and resumed
#      from its checkpoint directory must produce a CSV byte-identical to an
#      uninterrupted run's.
#   3. Resolution count independent of -j: the canonical sweep must print
#      the same number of two-phase resolutions at -j 1 as on each of four
#      -j 2 runs and two -j 8 runs, since workers that miss one trace key
#      wait for the one resolving it instead of resolving it again; the
#      sweep's waves are plain parallel maps, so these flights alone keep
#      each resolution once-only.
#
# The grid is small (64 points of BERT-tiny on the small NPU) so the whole
# script takes a few seconds; the same properties are exercised more deeply
# by internal/dse's unit tests, which this script complements by going
# through the real CLI, flag parsing and CSV writer.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

sweep="$GO run ./cmd/sweep -model bert -suite edge -npu small \
    -bw 8,11,16,22,32,44,64,88 -spm 1,2 -cores 1,2 -tkcap 0 \
    -policy baseline,partition -shard-size 16 -wave-size 8"

# 1. Pruned rows agree with unpruned rows on every simulated point.
$sweep -prune=true  -csv "$dir/pruned.csv"   > /dev/null
$sweep -prune=false -csv "$dir/unpruned.csv" > /dev/null
grep ',sim,' "$dir/pruned.csv" | sort > "$dir/pruned-sim.txt"
sort "$dir/unpruned.csv" > "$dir/unpruned-sorted.txt"
if ! comm -23 "$dir/pruned-sim.txt" "$dir/unpruned-sorted.txt" | grep -q .; then
    echo "sweep-check: pruned/unpruned simulated rows agree"
else
    echo "sweep-check: FAIL: pruned sweep simulated rows missing from unpruned sweep:" >&2
    comm -23 "$dir/pruned-sim.txt" "$dir/unpruned-sorted.txt" >&2
    exit 1
fi
if ! grep -q ',pruned,' "$dir/pruned.csv"; then
    echo "sweep-check: FAIL: pruned sweep pruned nothing (gate has no teeth)" >&2
    exit 1
fi

# 2. Kill after the first shard, resume, compare against an uninterrupted run.
$sweep -checkpoint "$dir/ck" -max-shards 1 -csv /dev/null > /dev/null
$sweep -checkpoint "$dir/ck" -resume -csv "$dir/resumed.csv" > /dev/null
$sweep -csv "$dir/fresh.csv" > /dev/null
if cmp -s "$dir/resumed.csv" "$dir/fresh.csv"; then
    echo "sweep-check: kill+resume CSV byte-identical to uninterrupted run"
else
    echo "sweep-check: FAIL: resumed sweep differs from uninterrupted run" >&2
    diff "$dir/resumed.csv" "$dir/fresh.csv" | head >&2
    exit 1
fi

# 3. Resolutions of the canonical sweep at -j 1, -j 2 and -j 8.
$GO build -o "$dir/sweep" ./cmd/sweep
resolutions() {
    "$dir/sweep" -canonical -j "$1" -csv /dev/null | sed -n 's/^two-phase executor: \([0-9]*\) resolutions.*/\1/p'
}
want=$(resolutions 1)
if [ -z "$want" ]; then
    echo "sweep-check: FAIL: the canonical sweep printed no resolution count" >&2
    exit 1
fi
for j in 2 2 2 2 8 8; do
    got=$(resolutions $j)
    if [ "$got" != "$want" ]; then
        echo "sweep-check: FAIL: canonical sweep resolved $got traces at -j $j, $want at -j 1" >&2
        exit 1
    fi
done
echo "sweep-check: canonical sweep resolves $want traces at -j 1, -j 2 and -j 8"
