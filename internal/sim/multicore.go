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

// RunMultiPhased executes phases of concurrent per-core op streams on an
// NPU whose cores share the scratchpad: residency is simulated on the
// combined SPM over a round-robin merge of each phase's streams, so a tile
// loaded by one core (for example the duplicated dY of ifmap-sharing
// partitioning) hits for every other core. Each core owns its systolic
// array and its per-core slice of DRAM bandwidth.
//
// Phases model synchronized kernel boundaries (for example the dX kernels
// of all cores followed by the dW kernels under conventional data
// parallelism): the scratchpad is flushed between phases, while per-core
// pipeline time carries across.
//
// The scratchpad is physically shared by all cores (Section 2.2), but how
// software uses it differs: conventional data-parallel execution allocates
// each core's kernel buffers privately (shared == false — a tile loaded by
// one core is invisible to the others), whereas the paper's inter-core
// distribution step places partition-shared tensors once for all cores
// (shared == true).
//
// One compiler interns tiles across every phase and stream, so a tile
// shared between cores (the duplicated dY of ifmap-sharing partitioning)
// carries one ID everywhere and the shared-residency logic runs on dense
// arrays.
//
// Every phase must have between 1 and cfg.Cores streams; empty streams are
// allowed (an idle core).
func RunMultiPhased(cfg config.NPU, opts Options, phases [][][]schedule.Op, shared bool) MultiResult {
	out, _ := runMulti(cfg, opts, phases, shared, false)
	return out
}

// ResolveMulti runs phases exactly as RunMultiPhased does, additionally
// recording the residency-resolved trace ReplayMulti re-prices. As with
// ResolveProgram, the trace is nil when the run is not representable, and
// tracing is unsupported.
func ResolveMulti(cfg config.NPU, opts Options, phases [][][]schedule.Op, shared bool) (MultiResult, *ResolvedTrace) {
	if opts.Trace != nil {
		panic("sim: ResolveMulti with tracing enabled")
	}
	return runMulti(cfg, opts, phases, shared, true)
}

// runMulti lowers phases into a pooled runner's program — stream i of a
// phase becomes that phase's kernel on core i — and runs it.
func runMulti(cfg config.NPU, opts Options, phases [][][]schedule.Op, shared, record bool) (MultiResult, *ResolvedTrace) {
	if len(phases) == 0 {
		panic("sim: no phases")
	}
	cr := compiledPool.Get()
	prog := cr.newProgram()
	for _, streams := range phases {
		if len(streams) == 0 {
			panic("sim: no op streams")
		}
		for ci, ops := range streams {
			cr.comp.AppendKernel(prog, "", ci, ops)
		}
	}
	prog.Table = cr.comp.Table()
	out, rt := cr.multi(cfg, opts, prog, shared, record)
	compiledPool.Put(cr)
	return out, rt
}

// runMultiProgram runs a built multi-core program on a pooled runner.
func runMultiProgram(cfg config.NPU, opts Options, prog *schedule.Program, shared, record bool) (MultiResult, *ResolvedTrace) {
	cr := compiledPool.Get()
	out, rt := cr.multi(cfg, opts, prog, shared, record)
	compiledPool.Put(cr)
	return out, rt
}

// multi runs prog on as many cores as its kernels use. A program's pipes
// are sized from its own kernels, so a kernel on a core cfg lacks is
// caught here, not by Bind: it would otherwise run at a 1/cfg.Cores
// bandwidth slice it does not own.
func (cr *compiledRunner) multi(cfg config.NPU, opts Options, prog *schedule.Program, shared, record bool) (MultiResult, *ResolvedTrace) {
	cores := 0
	for _, k := range prog.Kernels {
		cores = max(cores, k.Core+1)
	}
	if cores > cfg.Cores {
		panic("sim: more op streams than cores")
	}
	rt := cr.execute(cfg, opts, prog, cores, shared, true, record)
	out := cr.eng.multiResult()
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
