package sim

import (
	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
)

// MultiResult is the outcome of a multi-core simulation.
type MultiResult struct {
	// Cycles is the makespan: the slowest core's completion time.
	Cycles int64
	// PerCore holds each core's individual result.
	PerCore []Result
	// Traffic is the aggregate DRAM traffic of all cores.
	Traffic dram.Traffic
	// SharedHits counts scratchpad hits on tiles a *different* core loaded,
	// the benefit of the paper's shared-SPM organisation.
	SharedHits int64
}

// Seconds converts the makespan to wall-clock time. A configuration without
// a valid clock (FrequencyHz <= 0) yields 0 rather than +Inf/NaN.
func (r MultiResult) Seconds(cfg config.NPU) float64 {
	if cfg.FrequencyHz <= 0 {
		return 0
	}
	return float64(r.Cycles) / cfg.FrequencyHz
}

// runMultiProgram runs prog on a pooled runner, on as many cores as its
// kernels use. A program's pipes are sized from its own kernels, so a
// kernel on a core cfg lacks is caught here, not by Bind: it would
// otherwise run at a 1/cfg.Cores bandwidth slice it does not own.
func runMultiProgram(cfg config.NPU, opts Options, prog *schedule.Program, shared, record bool) (MultiResult, *ResolvedTrace) {
	cores := 0
	for _, k := range prog.Kernels {
		cores = max(cores, k.Core+1)
	}
	if cores > cfg.Cores {
		panic("sim: more op streams than cores")
	}
	cr := compiledPool.Get()
	rt := cr.execute(cfg, opts, prog, cores, shared, true, record)
	out := cr.eng.multiResult()
	compiledPool.Put(cr)
	countMulti(out)
	return out, rt
}

// multiResult assembles a MultiResult from its per-core results: the
// makespan is the slowest core's, the traffic the sum of all cores'.
func multiResult(perCore []Result, sharedHits int64) MultiResult {
	out := MultiResult{PerCore: perCore, SharedHits: sharedHits}
	for _, r := range perCore {
		out.Traffic.Merge(r.Traffic)
		out.Cycles = max(out.Cycles, r.Cycles)
	}
	return out
}
