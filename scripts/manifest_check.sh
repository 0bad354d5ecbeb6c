#!/bin/sh
# manifest-check: end-to-end determinism gate for run manifests, run by
# `make manifest-check` as part of `make ci`.
#
#   1. igosim -manifest at -j 1 and -j 8 must write byte-identical files,
#      for single-core (-config small) and four-core (-config large
#      -cores 4) partitioned runs: everything a manifest carries is
#      cycle-domain by construction.
#   2. igostat diff of a manifest against itself must exit 0.
#   3. A manifest with one corrupted counter (total_cycles off by one) must
#      make igostat exit non-zero and name the metric.
#
# The same properties are unit-tested in internal/metrics; this script
# complements them by going through the real CLIs, flag parsing and files.
set -eu

GO=${GO:-go}
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# same_across_j NAME ARGS...: igosim ARGS must write byte-identical
# manifests (NAME.j1.json, NAME.j8.json) at -j 1 and -j 8.
same_across_j() {
    name=$1
    shift
    $GO run ./cmd/igosim "$@" -j 1 -manifest "$dir/$name.j1.json" > /dev/null
    $GO run ./cmd/igosim "$@" -j 8 -manifest "$dir/$name.j8.json" > /dev/null
    if cmp -s "$dir/$name.j1.json" "$dir/$name.j8.json"; then
        echo "manifest-check: $name manifest byte-identical at -j 1 and -j 8"
    else
        echo "manifest-check: FAIL: $name manifest differs across -j:" >&2
        diff "$dir/$name.j1.json" "$dir/$name.j8.json" | head >&2
        exit 1
    fi
}

same_across_j small -config small -model all -policy partition
# Four-core plans: the multi-core trace-cache path must be -j independent
# too.
same_across_j large4 -config large -cores 4 -model all -policy partition

if $GO run ./cmd/igostat diff "$dir/small.j1.json" "$dir/small.j8.json" -q; then
    echo "manifest-check: igostat self-diff clean"
else
    echo "manifest-check: FAIL: igostat self-diff regressed" >&2
    exit 1
fi

# Corrupt the first total_cycles by one cycle; the gate must catch it and
# say which metric moved.
cycles=$(sed -n 's/.*"total_cycles": \([0-9]*\).*/\1/p' "$dir/small.j1.json" | head -1)
if [ -z "$cycles" ]; then
    echo "manifest-check: FAIL: no total_cycles field in manifest" >&2
    exit 1
fi
sed "0,/\"total_cycles\": $cycles/s//\"total_cycles\": $((cycles + 1))/" \
    "$dir/small.j1.json" > "$dir/bad.json"
if out=$($GO run ./cmd/igostat diff "$dir/small.j1.json" "$dir/bad.json" 2>&1); then
    echo "manifest-check: FAIL: one-cycle corruption passed the gate" >&2
    exit 1
fi
if ! printf '%s\n' "$out" | grep -q 'total_cycles'; then
    echo "manifest-check: FAIL: regression report does not name total_cycles:" >&2
    printf '%s\n' "$out" >&2
    exit 1
fi
echo "manifest-check: one-cycle corruption caught and named"
