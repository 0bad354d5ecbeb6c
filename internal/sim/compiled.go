package sim

import (
	"fmt"
	"strconv"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/systolic"
	"igosim/internal/trace"
)

// Compiled execution (DESIGN.md §3g). The schedule compiler lowers a kernel
// sequence into a dense program — tile keys interned to int32 IDs, byte
// sizes, classes and protocol flags resolved per op — and CompiledEngine
// executes it on 1..N cores against array-indexed residency state: an
// intrusive doubly-linked LRU over the tile-ID space with no map lookups
// and no allocations in steady state. The refmodel oracle, an independent
// access-list interpreter, holds every counter to bit-exact agreement
// (the property suite and `validate -refcheck`), and the golden trace
// files pin the event sequence traced runs emit.

// nilID terminates the intrusive LRU list.
const nilID = int32(-1)

// residency is the engines' scratchpad model: a byte-capacity LRU set with
// hit/miss/eviction stats, evicting least-recently-used tiles first, over
// one dense slot per tile ID.
type residency struct {
	_              cacheLine
	capacity, used int64
	head, tail     int32
	slots          []tileSlot
	stats          SPMStats
	victims        []int32 // eviction scratch, reused across inserts
	_              cacheLine
}

// tileSlot is one tile's residency state: its links in the LRU list and
// its size while resident. bytes 0 means not resident (insert refuses
// empty tiles), so one slot, one cache line at most, answers a lookup and
// relinks the tile.
type tileSlot struct {
	prev, next int32
	bytes      int64
}

// cacheLine pads both ends of the state step writes on every op — the
// residency sets and per-core pipes, which live in slices of their own —
// so that the engines of two workers never share a cache line.
type cacheLine [64]byte

// grow sizes the slots for a table of n tiles, reusing capacity. Contents
// are stale afterwards; callers must reset before use.
func (r *residency) grow(n int) { r.slots = resize(r.slots, n) }

// reset empties the residency set. Stats are preserved across this kernel
// boundary; zero them separately when starting a fresh run.
func (r *residency) reset() {
	clear(r.slots)
	r.used = 0
	r.head, r.tail = nilID, nilID
}

// touch marks id as most recently used if resident, counting a hit or miss.
//
//lint:hotpath
func (r *residency) touch(id schedule.TileID) bool {
	i := int32(id)
	if r.slots[i].bytes == 0 {
		r.stats.Misses++
		return false
	}
	r.stats.Hits++
	if r.head != i {
		r.unlink(i)
		r.pushFront(i)
	}
	return true
}

// insert adds id, evicting LRU tiles as needed. The returned victim slice
// (oldest first, valid until the next insert) lists evicted IDs; changed is
// false when id was already resident (recency refreshed, nothing evicted).
// A tile larger than the whole set cannot be held: insert panics, because
// the tiler is required to produce SPM-fitting tiles.
//
//lint:hotpath
func (r *residency) insert(id schedule.TileID, bytes int64) (evicted []int32, changed bool) {
	i := int32(id)
	if bytes <= 0 {
		panic(fmt.Sprintf("sim: invalid tile size %d", bytes))
	}
	if bytes > r.capacity {
		panic(fmt.Sprintf("sim: tile of %d bytes exceeds SPM capacity %d", bytes, r.capacity))
	}
	if r.slots[i].bytes != 0 {
		if r.head != i {
			r.unlink(i)
			r.pushFront(i)
		}
		return nil, false
	}
	r.victims = r.victims[:0]
	for r.used+bytes > r.capacity {
		v := r.tail
		if v == nilID {
			break
		}
		r.unlink(v)
		r.used -= r.slots[v].bytes
		r.slots[v].bytes = 0
		r.stats.Evictions++
		r.victims = append(r.victims, v)
	}
	r.slots[i].bytes = bytes
	r.used += bytes
	r.pushFront(i)
	return r.victims, true
}

// remove drops id, reporting whether it was resident.
//
//lint:hotpath
func (r *residency) remove(id schedule.TileID) bool {
	i := int32(id)
	s := &r.slots[i]
	if s.bytes == 0 {
		return false
	}
	r.unlink(i)
	r.used -= s.bytes
	s.bytes = 0
	return true
}

//lint:hotpath
func (r *residency) unlink(i int32) {
	p, n := r.slots[i].prev, r.slots[i].next
	if p != nilID {
		r.slots[p].next = n
	} else {
		r.head = n
	}
	if n != nilID {
		r.slots[n].prev = p
	} else {
		r.tail = p
	}
}

//lint:hotpath
func (r *residency) pushFront(i int32) {
	s := &r.slots[i]
	s.prev, s.next = nilID, r.head
	if r.head != nilID {
		r.slots[r.head].prev = i
	}
	r.head = i
	if r.tail == nilID {
		r.tail = i
	}
}

// CompiledEngine executes compiled programs on 1..N NPU cores; it is the
// one engine behind every sim entry point. Each core owns a two-stage
// pipeline (corePipe) over its own systolic array and per-core DRAM slice;
// the cores share one residency set over the whole scratchpad (shared
// placement) or own one each over their slice (private placement). A
// single-core run is one core with shared placement on a one-core NPU.
// Reuse pattern: Init (per configuration) -> Bind (per program) ->
// Execute; Result reads the accumulated outcome.
type CompiledEngine struct {
	arr    systolic.Array
	chn    dram.Channel
	freeDY bool

	// Placement, fixed at setup. multi selects the multi-core trace layout
	// (per-core and per-set tracks, phaseN spans); shared puts every core
	// on sets[0]; cross turns on cross-core hit accounting, which only a
	// shared set over several cores can produce.
	multi, shared, cross bool

	pipes     []corePipe
	sets      []residency
	liveBytes []int64 // active partial-sum bytes per tile ID (0 = not live)
	loadedBy  []int32 // core that last placed each resident tile (cross runs only)
	comp      []int64 // per-op systolic cycles, precomputed at Bind
	prog      *schedule.Program

	// Trace recording (resolved.go): while rec is on, step codes each op's
	// resolved transfer totals and tile-dimension index.
	rec recorder

	sharedHits int64
}

// corePipe is one core's state: its pipeline clocks and accumulated
// result, the residency set it reads, its trace tracks, and its cursors
// into the current phase and the recorded trace.
type corePipe struct {
	_           cacheLine
	memDone     int64
	compDone    int64
	prevCompEnd int64
	res         Result

	core int32 // index in the engine's pipes
	set  *residency
	tr   *trace.Track // the core's events; nil when tracing is disabled
	spm  *trace.Track // occupancy of the core's set (tr itself on a single-core run)

	next, end  int   // round-robin cursor in the current phase
	phaseStart int64 // compDone when the current phase began (traced runs)
	recAt      int   // next slot of the recorded trace's codes
	lead       int64 // the first op's DMA cycles; −1 before it
	_          cacheLine
}

// NewCompiledEngine builds a single-core engine for cfg.
func NewCompiledEngine(cfg config.NPU, opts Options) *CompiledEngine {
	e := &CompiledEngine{}
	e.Init(cfg, opts)
	return e
}

// Init (re)configures the engine for single-core runs of cfg and opts,
// clearing all run state. It makes pooled reuse safe: after Init the
// engine is indistinguishable from a freshly constructed one.
func (e *CompiledEngine) Init(cfg config.NPU, opts Options) {
	e.setup(cfg, opts, 1, true, false)
}

// setup (re)configures the engine for cores cores under the given
// placement; multi selects the multi-core trace layout.
func (e *CompiledEngine) setup(cfg config.NPU, opts Options, cores int, shared, multi bool) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if !multi {
		cfg.Cores = 1
	}
	e.arr = systolic.New(cfg)
	e.chn = dram.Channel{
		BytesPerCycle: cfg.BytesPerCycle(), // per core
		BurstLatency:  cfg.DRAMLatency,
	}
	e.freeDY = opts.FreeDYOnDW
	e.multi, e.shared, e.cross = multi, shared, shared && cores > 1

	// Half of the SPM is the double-buffer fill target; the residency sets
	// model the other half (Section 2.2).
	sets, capacity := cores, cfg.SPMBytes/2
	if shared {
		sets, capacity = 1, cfg.TotalSPMBytes()/2
	}
	e.sets = resize(e.sets, sets)
	for i := range e.sets {
		e.sets[i].capacity = capacity
		e.sets[i].stats = SPMStats{}
	}
	e.pipes = resize(e.pipes, cores)
	for ci := range e.pipes {
		e.pipes[ci] = corePipe{core: int32(ci), set: &e.sets[min(ci, sets-1)], lead: -1}
	}
	if opts.Trace != nil {
		e.newTracks(opts, capacity)
	}
	e.prog = nil
	e.rec.stop()
	e.sharedHits = 0
}

// resize returns s with length n, reusing its array when n fits. The
// contents are stale either way; a grown array is sized exactly, since
// pooled engines see programs of every size.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// newTracks opens the run's trace tracks. A single-core run records on one
// track named by the label. A multi-core run gets one track per core and
// one per residency set for occupancy: the scratchpad is a separate
// component the cores share, so its samples get their own track.
func (e *CompiledEngine) newTracks(opts Options, capacity int64) {
	label := opts.TrackPrefix(e.multi)
	if !e.multi {
		tr := opts.Trace.NewTrack(label)
		tr.SetCapacity(capacity)
		e.pipes[0].tr, e.pipes[0].spm = tr, tr
		return
	}
	for ci := range e.pipes {
		e.pipes[ci].tr = opts.Trace.NewTrack(label + "/core" + strconv.Itoa(ci))
	}
	for bi := range e.sets {
		name := label + "/spm"
		if !e.shared {
			name += strconv.Itoa(bi)
		}
		st := opts.Trace.NewTrack(name)
		st.SetCapacity(capacity)
		if e.shared {
			for ci := range e.pipes {
				e.pipes[ci].spm = st
			}
		} else {
			e.pipes[bi].spm = st
		}
	}
}

// Bind attaches a compiled program: residency arrays are sized to its
// Tiles and the systolic cost of every op of its code is computed once (on
// a program with Order, once per table entry however often the order
// visits it). Run state (residency, pipelines, counters) is preserved, so
// Bind only follows Init or Reset on a fresh measurement. Within each
// phase the kernels must run on cores 0, 1, … in order, on cores the
// engine was set up for. On a traced engine Bind also sizes the core
// tracks' reuse bookkeeping to its Tiles; a track records one
// program, so a traced engine binds once per Init.
func (e *CompiledEngine) Bind(prog *schedule.Program) {
	pos := 0
	for _, k := range prog.Kernels {
		if k.Core == 0 {
			pos = 0
		}
		if k.Core != pos || k.Core >= len(e.pipes) {
			panic(fmt.Sprintf("sim: kernel %q on core %d, want core %d of %d", k.Name, k.Core, pos, len(e.pipes)))
		}
		pos++
	}
	n := prog.Tiles
	for i := range e.sets {
		e.sets[i].grow(n)
	}
	e.liveBytes = resize(e.liveBytes, n)
	if e.cross {
		// Read only on a hit, and a tile is resident only after an insert
		// recorded its placer, so stale entries never need clearing.
		e.loadedBy = resize(e.loadedBy, n)
	}
	e.clearSets()
	for ci := range e.pipes {
		e.pipes[ci].tr.Bind(n)
	}
	e.prog = prog

	e.comp = resize(e.comp, len(prog.Code))
	// Tile dimensions repeat massively (only edge tiles differ), so a
	// last-value cache removes nearly every TileCycles call.
	lm, lk, ln := int32(-1), int32(-1), int32(-1)
	var lc int64
	for i := range prog.Code {
		op := &prog.Code[i]
		if op.Tm != lm || op.Tk != lk || op.Tn != ln {
			lm, lk, ln = op.Tm, op.Tk, op.Tn
			lc = e.arr.TileCycles(int(lm), int(lk), int(ln))
		}
		e.comp[i] = lc
	}
}

// clearSets empties every residency set and the per-tile state that lives
// only as long as a tile is resident.
func (e *CompiledEngine) clearSets() {
	for i := range e.sets {
		e.sets[i].reset()
	}
	clear(e.liveBytes)
}

// Reset clears scratchpad contents, pipeline state and accumulated results,
// keeping the configuration and bound program.
func (e *CompiledEngine) Reset() {
	e.clearSets()
	for i := range e.sets {
		e.sets[i].stats = SPMStats{}
	}
	for ci := range e.pipes {
		p := &e.pipes[ci]
		p.memDone, p.compDone, p.prevCompEnd = 0, 0, 0
		p.res = Result{}
		p.lead = -1
	}
	e.sharedHits = 0
}

// flushSPM empties the scratchpad without touching pipeline time or
// accumulated results, recording the occupancy drop on a traced run. It
// models a phase boundary: sequential execution frees each operation's
// staged buffers, which is exactly why the conventional backward pass
// cannot reuse dY across the two gradient GEMMs (Section 3.2).
func (e *CompiledEngine) flushSPM() {
	e.clearSets()
	for bi := range e.sets {
		if p := &e.pipes[bi]; p.spm != nil {
			e.occupancy(p)
		}
	}
}

// occupancy samples the fill of p's residency set on its occupancy track.
// A shared set is stamped with the latest DMA completion among the cores —
// the closest observable proxy for "now" in the round-robin merge.
func (e *CompiledEngine) occupancy(p *corePipe) {
	ts := p.memDone
	if e.shared {
		for ci := range e.pipes {
			ts = max(ts, e.pipes[ci].memDone)
		}
	}
	p.spm.Occupancy(ts, p.set.used)
}

// Execute runs the bound program phase by phase, flushing the scratchpad
// at every phase boundary while pipeline time carries across. A phase of
// one kernel runs in order; the kernels of a multi-core phase are merged
// round-robin, which approximates concurrent execution for residency
// purposes while timing is tracked per core. Traced runs get a span per
// phase on every core track: the kernel's name on a single-core run,
// "phaseN" on a multi-core one.
func (e *CompiledEngine) Execute() {
	prog := e.prog
	if prog == nil {
		panic("sim: Execute before Bind")
	}
	traced := e.pipes[0].tr != nil
	for start, pi := 0, 0; start < len(prog.Kernels); pi++ {
		end := start + 1
		for end < len(prog.Kernels) && prog.Kernels[end].Core != 0 {
			end++
		}
		phase := prog.Kernels[start:end]
		if start > 0 {
			e.flushSPM()
		}
		if traced {
			for ci := range e.pipes {
				e.pipes[ci].phaseStart = e.pipes[ci].compDone
			}
		}
		if len(phase) == 1 {
			e.runKernel(&phase[0])
		} else {
			e.runRoundRobin(phase)
		}
		if traced {
			name := phase[0].Name
			if e.multi {
				name = "phase" + strconv.Itoa(pi)
			}
			for ci := range e.pipes {
				p := &e.pipes[ci]
				p.tr.Phase(name, p.phaseStart, p.compDone)
			}
		}
		start = end
	}
}

// runKernel runs one kernel's ops in order on its core.
func (e *CompiledEngine) runKernel(k *schedule.Kernel) {
	code, comp, p := e.prog.Code, e.comp, &e.pipes[k.Core]
	if e.prog.Order == nil {
		for i := k.Start; i < k.End; i++ {
			e.step(p, &code[i], comp[i])
		}
		return
	}
	for _, j := range e.prog.Order[k.Start:k.End] {
		e.step(p, &code[j], comp[j])
	}
}

// runRoundRobin merges one phase's kernels: round r visits the kernels
// starting from kernel r mod n, taking the next op of each that has one.
// Rotating the starting kernel keeps any one core from always paying for
// the first fetch of a tile the partitions share.
func (e *CompiledEngine) runRoundRobin(phase []schedule.Kernel) {
	code, order, comp := e.prog.Code, e.prog.Order, e.comp
	n := len(phase)
	for ci := range phase {
		e.pipes[ci].next, e.pipes[ci].end = phase[ci].Start, phase[ci].End
	}
	for round, progressed := 0, true; progressed; round++ {
		progressed = false
		for i := 0; i < n; i++ {
			ci := (round + i) % n
			p := &e.pipes[ci]
			if p.next >= p.end {
				continue
			}
			j := p.next
			if order != nil {
				j = int(order[j])
			}
			p.next++
			progressed = true
			e.step(p, &code[j], comp[j])
		}
	}
}

// RunProgram is Bind + Execute.
func (e *CompiledEngine) RunProgram(prog *schedule.Program) {
	e.Bind(prog)
	e.Execute()
}

// Result returns core 0's accumulated result of all Execute calls since
// Reset — a single-core run's whole result.
func (e *CompiledEngine) Result() Result { return e.coreResult(0) }

// phase returns a single-core run's result and its pipeline transfer.
func (e *CompiledEngine) phase() Phase {
	p := &e.pipes[0]
	exit := pipeState{dma: max(p.memDone, p.prevCompEnd), comp: p.compDone}
	return Phase{Res: e.Result(), xfer: transfer{exit: exit, lead: p.lead}}
}

// coreResult returns core ci's accumulated result. Hit/miss stats live in
// the residency sets; they are reported once, on core 0, from the shared
// set or core 0's own.
func (e *CompiledEngine) coreResult(ci int) Result {
	p := &e.pipes[ci]
	r := p.res
	r.Cycles = p.compDone
	if ci == 0 {
		r.SPM = e.sets[0].stats
	}
	return r
}

// multiResult assembles the engine's accumulated MultiResult.
func (e *CompiledEngine) multiResult() MultiResult {
	perCore := make([]Result, len(e.pipes))
	for ci := range perCore {
		perCore[ci] = e.coreResult(ci)
	}
	return multiResult(perCore, e.sharedHits)
}

// step executes a single compiled op on core p through its two-stage
// pipeline. Spill write-backs are accounted separately from ordinary
// fetches and drains so the trace layer can attribute stall cycles to
// scratchpad pressure; the transfer timing itself depends only on the
// totals.
//
//lint:hotpath
func (e *CompiledEngine) step(p *corePipe, op *schedule.CompiledOp, compCycles int64) {
	set := p.set
	var fetchBytes, writeBytes, spillBytes int64
	var bursts, spillBursts int

	// Output (partial-sum) tile handling.
	out := op.Out
	if op.Flags&schedule.FlagOutFirst != 0 {
		if op.Flags&schedule.FlagOutLast == 0 {
			e.liveBytes[out] = op.OutBytes
		}
		e.insert(p, out, op.OutBytes, &spillBytes, &spillBursts)
	} else if !set.touch(out) {
		// The partial was spilled earlier; bring it back.
		fetchBytes += op.OutBytes
		bursts++
		p.res.Traffic.AddRead(dram.ClassAcc, op.OutBytes)
		e.insert(p, out, op.OutBytes, &spillBytes, &spillBursts)
	}
	if p.tr != nil {
		p.tr.Access(int32(out), op.OutClass)
	}

	// Operand tiles. A hit on a tile another core placed is a shared hit.
	if p.tr != nil {
		p.tr.Access(int32(op.A), op.AClass)
	}
	if set.touch(op.A) {
		if e.cross && e.loadedBy[op.A] != p.core {
			e.sharedHits++
		}
	} else {
		if !(e.freeDY && op.Flags&schedule.FlagFreeDYA != 0) {
			fetchBytes += op.ABytes
			bursts++
			p.res.Traffic.AddRead(op.AClass, op.ABytes)
		}
		e.insert(p, op.A, op.ABytes, &spillBytes, &spillBursts)
	}
	if p.tr != nil {
		p.tr.Access(int32(op.B), op.BClass)
	}
	if set.touch(op.B) {
		if e.cross && e.loadedBy[op.B] != p.core {
			e.sharedHits++
		}
	} else {
		if !(e.freeDY && op.Flags&schedule.FlagFreeDYB != 0) {
			fetchBytes += op.BBytes
			bursts++
			p.res.Traffic.AddRead(op.BClass, op.BBytes)
		}
		e.insert(p, op.B, op.BBytes, &spillBytes, &spillBursts)
	}

	// Final accumulation: stream the finished output back to DRAM.
	if op.Flags&schedule.FlagOutLast != 0 {
		writeBytes += op.OutBytes
		bursts++
		p.res.Traffic.AddWrite(op.OutClass, op.OutBytes)
		if set.remove(out) && p.spm != nil {
			e.occupancy(p)
		}
		e.liveBytes[out] = 0
	}

	memCycles := e.chn.TransferCycles(fetchBytes+writeBytes+spillBytes, bursts+spillBursts)

	if e.rec.on {
		e.rec.record(&p.recAt, op, fetchBytes+writeBytes+spillBytes, bursts+spillBursts)
	}

	// Double-buffered pipeline: the DMA may run at most one op ahead of the
	// compute stage (prefetch depth 2).
	memStart := max(p.memDone, p.prevCompEnd)
	memEnd := memStart + memCycles
	compStart := max(p.compDone, memEnd)
	compEnd := compStart + compCycles

	if p.tr != nil {
		p.tr.DMA(memStart, memCycles, fetchBytes, writeBytes, spillBytes, bursts+spillBursts)
		p.tr.Compute(op.Kind.String(), compStart, compCycles, int(op.Tm), int(op.Tk), int(op.Tn))
		p.tr.Stall(splitStall(e.chn, compStart-p.compDone, memCycles, spillBytes, spillBursts))
	}

	p.memDone = memEnd
	p.prevCompEnd = p.compDone
	p.compDone = compEnd
	if p.lead < 0 {
		p.lead = memCycles
	}

	p.res.ComputeCycles += compCycles
	p.res.MemCycles += memCycles
	p.res.Ops++
}

// insert places a tile in core p's residency set, charging spill writes
// for any live partial-sum tiles that get evicted. On a traced run the
// occupancy sample precedes the spill instants.
//
//lint:hotpath
func (e *CompiledEngine) insert(p *corePipe, id schedule.TileID, bytes int64, spillBytes *int64, spillBursts *int) {
	victims, changed := p.set.insert(id, bytes)
	if changed && p.spm != nil {
		e.occupancy(p)
	}
	for _, v := range victims {
		vb := e.liveBytes[v]
		if vb == 0 {
			continue // clean operand tile: dropping it is free
		}
		*spillBytes += vb
		*spillBursts++
		p.res.Traffic.AddWrite(dram.ClassAcc, vb)
		p.res.Spills++
		p.tr.Spill(p.memDone, vb)
	}
	if e.cross {
		e.loadedBy[id] = p.core
	}
}

// compiledRunner bundles the per-call state of the compiled path — engine
// and program buffers — so a pooled runner executes a steady stream of
// runs with no per-call allocations: the code buffer, residency arrays
// and cost table all grow to the largest program a worker sees and are
// then reused.
type compiledRunner struct {
	eng  CompiledEngine
	prog schedule.Program
}

var compiledPool = runner.NewPool(func() *compiledRunner { return &compiledRunner{} })

// execute runs prog on the runner's engine, set up for cores cores under
// the given placement (multi selects the multi-core trace layout), and
// returns its resolved trace when record is set and the run is
// representable. Results stay in the engine for the caller to read; no
// reference to the program or the trace sink stays in the pooled state.
func (cr *compiledRunner) execute(cfg config.NPU, opts Options, prog *schedule.Program, cores int, shared, multi, record bool) *ResolvedTrace {
	e := &cr.eng
	e.setup(cfg, opts, cores, shared, multi)
	e.Bind(prog)
	if record {
		e.startRecording()
	}
	e.Execute()
	rt := e.finishRecording()
	e.prog = nil
	for ci := range e.pipes {
		e.pipes[ci].tr.Release()
		e.pipes[ci].tr, e.pipes[ci].spm = nil, nil
	}
	return rt
}

// runSingle runs prog as a single-core program on a pooled runner.
func runSingle(cfg config.NPU, opts Options, prog *schedule.Program, record bool) (Phase, *ResolvedTrace) {
	cr := compiledPool.Get()
	ph, rt := cr.single(cfg, opts, prog, record)
	compiledPool.Put(cr)
	return ph, rt
}

// single runs prog as a single-core program, returning its result with
// its pipeline transfer.
func (cr *compiledRunner) single(cfg config.NPU, opts Options, prog *schedule.Program, record bool) (Phase, *ResolvedTrace) {
	rt := cr.execute(cfg, opts, prog, 1, true, false, record)
	ph := cr.eng.phase()
	countPass(ph.Res)
	return ph, rt
}
