package sim

import (
	"strconv"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/systolic"
	"igosim/internal/trace"
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

// corePipe is the per-core pipeline state of the multi-core engine.
type corePipe struct {
	memDone     int64
	compDone    int64
	prevCompEnd int64
	res         Result
}

// RunMulti executes one op stream per core with deliberate shared-SPM
// placement (the paper's inter-core distribution). See RunMultiPhased for
// the phase semantics; RunMulti is the single-phase shared case.
func RunMulti(cfg config.NPU, opts Options, streams [][]schedule.Op) MultiResult {
	return RunMultiPhased(cfg, opts, [][][]schedule.Op{streams}, true)
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
	if len(phases) == 0 {
		panic("sim: no phases")
	}
	cores := 0
	for _, streams := range phases {
		if len(streams) == 0 {
			panic("sim: no op streams")
		}
		if len(streams) > cfg.Cores {
			panic("sim: more op streams than cores")
		}
		cores = max(cores, len(streams))
	}
	c := schedule.NewCompiler()
	code := make([][][]schedule.CompiledOp, len(phases))
	for pi, streams := range phases {
		code[pi] = make([][]schedule.CompiledOp, len(streams))
		for si, ops := range streams {
			code[pi][si] = c.CompileOps(ops)
		}
	}
	n := c.NumTiles()
	keys := c.Table().Keys

	arr := systolic.New(cfg)
	chn := dram.Channel{
		BytesPerCycle: cfg.BytesPerCycle(), // per core
		BurstLatency:  cfg.DRAMLatency,
	}
	var bufs []*residency
	if shared {
		bufs = []*residency{{capacity: cfg.TotalSPMBytes() / 2}}
	} else {
		bufs = make([]*residency, cores)
		for ci := range bufs {
			bufs[ci] = &residency{capacity: cfg.SPMBytes / 2}
		}
	}
	for _, b := range bufs {
		b.grow(n)
		b.reset()
	}
	bufFor := func(ci int) *residency {
		if shared {
			return bufs[0]
		}
		return bufs[ci]
	}
	liveBytes := make([]int64, n)
	loadedBy := make([]int32, n)
	for i := range loadedBy {
		loadedBy[i] = noCore
	}

	pipes := make([]corePipe, cores)
	var sharedHits int64

	// Tracing: one cycle-domain track per core, plus one per residency set
	// for occupancy (the scratchpad is a separate component the cores share,
	// so its samples get their own track). Occupancy timestamps use the
	// latest DMA completion among the cores using the buffer — the closest
	// observable proxy for "now" in the round-robin residency merge.
	var coreTr []*trace.Track
	var occ []func(used int64) // per buffer index; nil when not traced
	if opts.Trace != nil {
		label := opts.TraceLabel
		if label == "" {
			label = "multicore"
		}
		coreTr = make([]*trace.Track, cores)
		for ci := range coreTr {
			coreTr[ci] = opts.Trace.NewTrack(label + "/core" + strconv.Itoa(ci))
		}
		occTS := func(bi int) int64 {
			if !shared {
				return pipes[bi].memDone
			}
			var ts int64
			for ci := range pipes {
				ts = max(ts, pipes[ci].memDone)
			}
			return ts
		}
		occ = make([]func(used int64), len(bufs))
		for bi, b := range bufs {
			name := label + "/spm"
			if !shared {
				name += strconv.Itoa(bi)
			}
			st := opts.Trace.NewTrack(name)
			st.SetCapacity(b.capacity)
			bi := bi
			occ[bi] = func(used int64) { st.Occupancy(occTS(bi), used) }
		}
	}
	occFor := func(ci int) func(used int64) {
		if occ == nil {
			return nil
		}
		if shared {
			return occ[0]
		}
		return occ[ci]
	}

	for pi, streams := range code {
		if pi > 0 {
			for bi, b := range bufs {
				b.reset()
				if occ != nil {
					occ[bi](0)
				}
			}
			clear(liveBytes)
			for i := range loadedBy {
				loadedBy[i] = noCore
			}
		}
		var phaseStart []int64
		if coreTr != nil {
			phaseStart = make([]int64, cores)
			for ci := range pipes {
				phaseStart[ci] = pipes[ci].compDone
			}
		}
		next := make([]int, len(streams))
		// Round-robin merge approximates concurrent execution for residency
		// purposes; timing is tracked per core. The service order rotates
		// every round so no single core systematically pays for the first
		// fetch of tiles the partitions share.
		for round := 0; ; round++ {
			progressed := false
			for i := range streams {
				ci := (round + i) % len(streams)
				if next[ci] >= len(streams[ci]) {
					continue
				}
				op := &streams[ci][next[ci]]
				next[ci]++
				progressed = true
				var tr *trace.Track
				if coreTr != nil {
					tr = coreTr[ci]
				}
				stepShared(op, int32(ci), arr, chn, bufFor(ci), liveBytes,
					loadedBy, keys, &pipes[ci], opts.FreeDYOnDW, &sharedHits, tr, occFor(ci))
			}
			if !progressed {
				break
			}
		}
		if coreTr != nil {
			name := "phase" + strconv.Itoa(pi)
			for ci := range pipes {
				coreTr[ci].Phase(name, phaseStart[ci], pipes[ci].compDone)
			}
		}
	}

	out := MultiResult{PerCore: make([]Result, len(pipes)), SharedHits: sharedHits}
	if !shared {
		out.SharedHits = 0
	}
	for ci := range pipes {
		pipes[ci].res.Cycles = pipes[ci].compDone
		out.PerCore[ci] = pipes[ci].res
		out.Traffic.Merge(pipes[ci].res.Traffic)
		if pipes[ci].compDone > out.Cycles {
			out.Cycles = pipes[ci].compDone
		}
	}
	// Hit/miss stats live in the shared (or core-0) buffer; surface them on
	// core 0's result.
	if len(out.PerCore) > 0 {
		out.PerCore[0].SPM = bufFor(0).stats
	}
	countMulti(out)
	return out
}

// noCore marks a tile no core currently claims in the loadedBy table.
const noCore = int32(-1)

// stepShared is CompiledEngine.step for one core of a multi-core run: the
// residency set may be shared with other cores, and operand hits on tiles
// another core loaded count as shared hits.
//
//lint:hotpath
func stepShared(op *schedule.CompiledOp, core int32, arr systolic.Array, chn dram.Channel,
	buf *residency, liveBytes []int64, loadedBy []int32, keys []schedule.TileKey,
	p *corePipe, freeDY bool, sharedHits *int64, tr *trace.Track, occ func(used int64)) {

	var fetchBytes, writeBytes, spillBytes int64
	var bursts, spillBursts int

	insert := func(id schedule.TileID, bytes int64) {
		victims, changed := buf.insert(id, bytes)
		if changed && occ != nil {
			occ(buf.used)
		}
		for _, v := range victims {
			vb := liveBytes[v]
			loadedBy[v] = noCore
			if vb == 0 {
				continue
			}
			spillBytes += vb
			spillBursts++
			p.res.Traffic.AddWrite(dram.ClassAcc, vb)
			p.res.Spills++
			tr.Spill(p.memDone, vb)
		}
		loadedBy[id] = core
	}

	out := op.Out
	if op.Flags&schedule.FlagOutFirst != 0 {
		if op.Flags&schedule.FlagOutLast == 0 {
			liveBytes[out] = op.OutBytes
		}
		insert(out, op.OutBytes)
	} else if !buf.touch(out) {
		fetchBytes += op.OutBytes
		bursts++
		p.res.Traffic.AddRead(dram.ClassAcc, op.OutBytes)
		insert(out, op.OutBytes)
	}
	if tr != nil {
		tr.Access(keys[out])
	}

	if tr != nil {
		tr.Access(keys[op.A])
	}
	if buf.touch(op.A) {
		if by := loadedBy[op.A]; by != noCore && by != core {
			*sharedHits++
		}
	} else {
		if !(freeDY && op.Flags&schedule.FlagFreeDYA != 0) {
			fetchBytes += op.ABytes
			bursts++
			p.res.Traffic.AddRead(op.AClass, op.ABytes)
		}
		insert(op.A, op.ABytes)
	}
	if tr != nil {
		tr.Access(keys[op.B])
	}
	if buf.touch(op.B) {
		if by := loadedBy[op.B]; by != noCore && by != core {
			*sharedHits++
		}
	} else {
		if !(freeDY && op.Flags&schedule.FlagFreeDYB != 0) {
			fetchBytes += op.BBytes
			bursts++
			p.res.Traffic.AddRead(op.BClass, op.BBytes)
		}
		insert(op.B, op.BBytes)
	}

	if op.Flags&schedule.FlagOutLast != 0 {
		writeBytes += op.OutBytes
		bursts++
		p.res.Traffic.AddWrite(op.OutClass, op.OutBytes)
		if buf.remove(out) && occ != nil {
			occ(buf.used)
		}
		liveBytes[out] = 0
		loadedBy[out] = noCore
	}

	memCycles := chn.TransferCycles(fetchBytes+writeBytes+spillBytes, bursts+spillBursts)
	compCycles := arr.TileCycles(int(op.Tm), int(op.Tk), int(op.Tn))

	memStart := max(p.memDone, p.prevCompEnd)
	memEnd := memStart + memCycles
	compStart := max(p.compDone, memEnd)
	compEnd := compStart + compCycles

	if tr != nil {
		tr.DMA(memStart, memCycles, fetchBytes, writeBytes, spillBytes, bursts+spillBursts)
		tr.Compute(op.Kind.String(), compStart, compCycles, int(op.Tm), int(op.Tk), int(op.Tn))
		tr.Stall(splitStall(chn, compStart-p.compDone, memCycles, spillBytes, spillBursts))
	}

	p.memDone = memEnd
	p.prevCompEnd = p.compDone
	p.compDone = compEnd

	p.res.ComputeCycles += compCycles
	p.res.MemCycles += memCycles
	p.res.Ops++
}
