package sim

import "igosim/internal/metrics"

// Pass-level engine counters: residency, eviction, spill and traffic
// totals aggregated once per executed schedule/stream pass — never per op,
// so the compiled engine's allocation-free hot loop stays untouched (the
// adds below are single atomics on the pass epilogue).
//
// Wall domain, deliberately: memoization means the set of passes that
// actually execute depends on cache state and worker interleaving, so
// these totals are host-execution facts. The deterministic counterparts
// live in sim.Result (returned to callers) and in the manifest's workload
// section.
var (
	mPasses = metrics.NewCounter("sim_passes_total",
		"schedule/stream executions (execution-dependent under memoization)", metrics.Wall)
	mPassCycles = metrics.NewCounter("sim_pass_cycles_total",
		"simulated cycles summed over executed passes", metrics.Wall)
	mEvictions = metrics.NewCounter("sim_spm_evictions_total",
		"scratchpad evictions summed over executed passes", metrics.Wall)
	mSpills = metrics.NewCounter("sim_spill_tiles_total",
		"partial-sum tiles spilled to DRAM summed over executed passes", metrics.Wall)
	mTraffic = metrics.NewCounterVec("sim_dram_bytes_total", "dir",
		"DRAM bytes moved summed over executed passes, by direction", metrics.Wall)
	// Children resolved once at init: With allocates on first use, and the
	// pass epilogue must stay allocation-free.
	mTrafficRead  = mTraffic.With("read")
	mTrafficWrite = mTraffic.With("write")
)

// countPass publishes one completed single-engine pass.
func countPass(res Result) {
	mPasses.Inc()
	mPassCycles.Add(res.Cycles)
	mEvictions.Add(res.SPM.Evictions)
	mSpills.Add(res.Spills)
	mTrafficRead.Add(res.Traffic.TotalRead())
	mTrafficWrite.Add(res.Traffic.TotalWrite())
}

// countMulti publishes one completed multi-core pass: evictions of the
// core-0 residency set (the shared set, or core 0's own), the SPM stats a
// MultiResult reports, and every core's spills.
func countMulti(res MultiResult) {
	mPasses.Inc()
	mPassCycles.Add(res.Cycles)
	if len(res.PerCore) > 0 {
		mEvictions.Add(res.PerCore[0].SPM.Evictions)
	}
	var spills int64
	for _, r := range res.PerCore {
		spills += r.Spills
	}
	mSpills.Add(spills)
	mTrafficRead.Add(res.Traffic.TotalRead())
	mTrafficWrite.Add(res.Traffic.TotalWrite())
}
