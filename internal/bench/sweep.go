package bench

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dse"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// SweepSpace is the canonical design-space-exploration workload: BERT-tiny
// on the small NPU over a dense log-spaced bandwidth axis, two scratchpad
// sizes, two tiling caps and the baseline/partitioned policy pair. Dense
// single-axis neighborhoods plus the baseline policy's zero reduction cap
// are where the analytic pruner earns its keep, so this grid exercises the
// pruned and simulated paths in realistic proportion (a few hundred points,
// seconds of wall time).
func SweepSpace() dse.Space {
	s := dse.Space{
		Model:    workload.BERTTiny(),
		Base:     config.SmallNPU(),
		Cores:    []int{1},
		SPMMiB:   []float64{2, 4},
		TkCaps:   []int{0, 64},
		Policies: []core.Policy{core.PolBaseline, core.PolPartition},
	}
	s.BWGBs = logAxis(16, 256, 30)
	return s
}

// logAxis returns n log-spaced points from lo to hi inclusive, computed
// with integer-exponent arithmetic only so the axis is bit-stable across
// platforms (no math.Pow of a data-dependent exponent).
func logAxis(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	ratio := rootN(hi/lo, n-1)
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[n-1] = hi
	return out
}

// rootN computes x^(1/n) by bisection to full float precision.
func rootN(x float64, n int) float64 {
	lo, hi := 1.0, x
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		p := 1.0
		for j := 0; j < n; j++ {
			p *= mid
		}
		if p < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// SweepResult is the summary cmd/benchjson serializes as BENCH_sweep.json.
// Resolutions and Replays describe the two-phase executor's work split
// over the sweep (DESIGN.md §3l). Resolutions is the residency cache's
// distinct-key census — the number of logical (program, capacity, policy)
// traces the grid needs — which is parallelism-independent and gated
// exactly. Replays counts replay events, which can gain a few from
// miss races under -j (a second worker replaying what the first resolved),
// so it is gated as wall. ReuseRatio is replays per resolution — the factor the residency
// cache saves on the grid. TraceBytes is what the resident traces pin at
// the end of the sweep, as the cache's byte budget weighs them
// (sim.ResolvedCacheBytes): the grid's traces all fit, so it is the sum
// over the census and gated exactly.
type SweepResult struct {
	Points       int     `json:"points"`
	Simulated    int     `json:"simulated"`
	PrunedFrac   float64 `json:"pruned_fraction"`
	PointsPerSec float64 `json:"points_per_sec"`
	WallSeconds  float64 `json:"wall_seconds"`
	FrontierSize int     `json:"frontier_size"`
	Resolutions  int64   `json:"resolutions"`
	Replays      int64   `json:"replays"`
	ReuseRatio   float64 `json:"reuse_ratio"`
	TraceBytes   int64   `json:"trace_bytes"`
}

// RunSweep executes the canonical sweep once with pruning at the default
// relaxations and summarizes it; wallSeconds comes from the caller so this
// package stays wall-clock free. Caches are dropped first so the
// resolution/replay counts describe this sweep alone, cold, reproducibly.
func RunSweep(wallSeconds float64) (SweepResult, error) {
	core.ResetCaches()
	before := sim.ResolvedPhaseStats()
	space := SweepSpace()
	res, err := dse.Run(space, dse.Options{Prune: true, Eps: -1, EpsRed: -1})
	if err != nil {
		return SweepResult{}, err
	}
	after := sim.ResolvedPhaseStats()
	out := SweepResult{
		Points:       space.Size(),
		Simulated:    res.Simulated,
		WallSeconds:  wallSeconds,
		FrontierSize: len(res.Frontier),
		Resolutions:  sim.ResolvedCacheStats().Entries,
		Replays:      after.Replays - before.Replays,
		TraceBytes:   int64(sim.ResolvedCacheBytes()),
	}
	if out.Resolutions > 0 {
		out.ReuseRatio = float64(out.Replays) / float64(out.Resolutions)
	}
	if n := len(res.Rows); n > 0 {
		out.PrunedFrac = float64(res.Pruned) / float64(n)
	}
	if wallSeconds > 0 {
		out.PointsPerSec = float64(space.Size()) / wallSeconds
	}
	return out, nil
}

// SweepPruned returns a benchmark body running the canonical pruned sweep
// end to end, reporting throughput (points/s) and the pruned fraction.
func SweepPruned() func(*testing.B) {
	space := SweepSpace()
	total := space.Size()
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var res dse.Result
		for i := 0; i < b.N; i++ {
			var err error
			res, err = dse.Run(space, dse.Options{Prune: true, Eps: -1, EpsRed: -1})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds() / float64(b.N)
		if secs > 0 {
			b.ReportMetric(float64(total)/secs, "points/s")
		}
		b.ReportMetric(100*float64(res.Pruned)/float64(total), "pruned_%")
	}
}
