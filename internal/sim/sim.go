// Package sim is the NPU simulator engine. It lowers tile-operation
// streams (internal/schedule) into compiled programs and executes them
// against a byte-capacity LRU scratchpad residency model, the DRAM channel
// (internal/dram) and the systolic-array timing model (internal/systolic),
// with double-buffered overlap of data transfer and computation — the
// execution model the paper assumes (Section 2.2 and 6.1). The
// internal/refmodel oracle checks every counter it produces.
package sim

import (
	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/trace"
)

// Options tweak engine behaviour for specific studies.
type Options struct {
	// FreeDYOnDW makes dY reads issued by dW-side operations free (no
	// traffic, no transfer time), reproducing the Section 3.3 limit study
	// ("we eliminate dY reads, assuming the data are hypothetically
	// available without any external memory access").
	FreeDYOnDW bool

	// Trace, when non-nil, receives cycle-level events from every engine
	// built with these options: per-op DMA and compute spans, stall
	// attribution, SPM occupancy samples and kernel phase spans. nil (the
	// default) disables tracing at zero cost — results are bit-identical
	// either way; only observability changes.
	Trace *trace.Sink

	// TraceLabel names the trace tracks of engines built with these options
	// (typically "model/layer pass"). Ignored when Trace is nil.
	TraceLabel string
}

// TrackPrefix returns what the name of every trace track a run under o
// opens begins with: TraceLabel, or when it is empty "engine" for a
// single-core run and "multicore" for a multi-core one. A single-core
// run's one track is named the prefix; a multi-core run's are the prefix
// followed by "/coreN" and "/spm" or "/spmN".
func (o Options) TrackPrefix(multi bool) string {
	switch {
	case o.TraceLabel != "":
		return o.TraceLabel
	case multi:
		return "multicore"
	default:
		return "engine"
	}
}

// Result aggregates the outcome of simulated tile streams.
type Result struct {
	// Cycles is the pipelined makespan.
	Cycles int64
	// ComputeCycles is the sum of systolic compute time (no stalls).
	ComputeCycles int64
	// MemCycles is the sum of DMA transfer time (no overlap accounting).
	MemCycles int64
	// Traffic is the DRAM traffic broken down by tensor class.
	Traffic dram.Traffic
	// Ops is the number of tile operations executed.
	Ops int64
	// SPM reports scratchpad hit/miss/eviction counts.
	SPM SPMStats
	// Spills counts live partial-sum tiles pushed to DRAM by pressure.
	Spills int64
}

// SPMStats counts scratchpad residency events.
type SPMStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Merge adds o's counters into s. Every counter merge in the simulator goes
// through here, so a counter added to SPMStats cannot be forgotten in one
// of the call sites.
func (s *SPMStats) Merge(o SPMStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// Seconds converts the makespan to wall-clock time for the configuration.
// A configuration without a valid clock (FrequencyHz <= 0) yields 0 rather
// than leaking +Inf/NaN into reports.
func (r Result) Seconds(cfg config.NPU) float64 {
	if cfg.FrequencyHz <= 0 {
		return 0
	}
	return float64(r.Cycles) / cfg.FrequencyHz
}

// Add merges another result that executed *sequentially after* r.
func (r *Result) Add(o Result) {
	r.Cycles += o.Cycles
	r.ComputeCycles += o.ComputeCycles
	r.MemCycles += o.MemCycles
	r.Traffic.Merge(o.Traffic)
	r.Ops += o.Ops
	r.SPM.Merge(o.SPM)
	r.Spills += o.Spills
}

// splitStall attributes one op's compute-stage stall between ordinary DMA
// waiting and pressure-spill waiting, proportionally to the spill share of
// the blocking transfer. The two parts always sum to the stall, keeping the
// per-track reconciliation exact.
func splitStall(chn dram.Channel, stall, memCycles, spillBytes int64, spillBursts int) (dma, spill int64) {
	if stall <= 0 {
		return 0, 0
	}
	if memCycles > 0 && spillBytes > 0 {
		spillCyc := min(chn.TransferCycles(spillBytes, spillBursts), memCycles)
		spill = stall * spillCyc / memCycles
	}
	return stall - spill, spill
}

// RunSchedules executes the given schedules in order on a fresh
// single-core engine, flushing the scratchpad at each schedule boundary
// (schedules model separate kernels), and returns the combined result. The
// schedules are lowered into pooled buffers and run on the compiled engine.
func RunSchedules(cfg config.NPU, opts Options, scheds ...schedule.Schedule) Result {
	cr := compiledPool.Get()
	prog := &cr.prog
	prog.Kernels = prog.Kernels[:0]
	for _, s := range scheds {
		prog.Kernels = append(prog.Kernels, schedule.Kernel{Name: s.Name})
	}
	schedule.LowerKernels(prog, func(i int) []schedule.Op { return scheds[i].Ops })
	ph, _ := cr.single(cfg, opts, prog, false)
	compiledPool.Put(cr)
	return ph.Res
}

// ReduceResult describes the cost of a cross-partition reduction phase.
type ReduceResult struct {
	Cycles  int64
	Traffic dram.Traffic
}

// ReduceCost models the accumulation step that weight-sharing (dW) and
// dY-sharing (dX) partitioning require: parts partial tensors of outBytes
// each are read back, summed element-wise and the final tensor written out.
// The sum itself is vector work that proceeds at DMA line rate, so the
// phase is bandwidth-bound on the aggregate channel.
func ReduceCost(cfg config.NPU, parts int, outBytes int64, finalClass dram.Class) ReduceResult {
	if parts <= 1 || outBytes <= 0 {
		return ReduceResult{}
	}
	chn := dram.Channel{
		BytesPerCycle: cfg.TotalBandwidth() / cfg.FrequencyHz,
		BurstLatency:  cfg.DRAMLatency,
	}
	var tr dram.Traffic
	readBytes := int64(parts) * outBytes
	tr.AddRead(dram.ClassAcc, readBytes)
	tr.AddWrite(finalClass, outBytes)
	return ReduceResult{
		Cycles:  chn.TransferCycles(readBytes+outBytes, parts+1),
		Traffic: tr,
	}
}
