package sim

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/systolic"
	"igosim/internal/trace"
)

// Compiled execution (DESIGN.md §3g). schedule.Compile lowers a kernel
// sequence into a dense program — tile keys interned to int32 IDs, byte
// sizes, classes and protocol flags resolved per op — and CompiledEngine
// executes it against array-indexed residency state: an intrusive
// doubly-linked LRU over the tile-ID space with no map lookups and no
// allocations in steady state. The refmodel oracle, an independent
// access-list interpreter, holds every counter to bit-exact agreement
// (the property suite and `validate -refcheck`), and the golden trace
// files pin the event sequence traced runs emit.

// nilID terminates the intrusive LRU list.
const nilID = int32(-1)

// residency is the engines' scratchpad model: a byte-capacity LRU set with
// hit/miss/eviction stats, evicting least-recently-used tiles first, over
// dense tile-ID arrays.
type residency struct {
	capacity, used int64
	head, tail     int32
	prev, next     []int32
	resident       []bool
	resBytes       []int64
	stats          SPMStats
	victims        []int32 // eviction scratch, reused across inserts
}

// grow sizes the arrays for a table of n tiles, reusing capacity. Contents
// are stale afterwards; callers must reset before use.
func (r *residency) grow(n int) {
	if cap(r.prev) >= n {
		r.prev = r.prev[:n]
		r.next = r.next[:n]
		r.resident = r.resident[:n]
		r.resBytes = r.resBytes[:n]
		return
	}
	r.prev = make([]int32, n)
	r.next = make([]int32, n)
	r.resident = make([]bool, n)
	r.resBytes = make([]int64, n)
}

// reset empties the residency set. Stats are preserved across this kernel
// boundary; zero them separately when starting a fresh run.
func (r *residency) reset() {
	clear(r.resident)
	r.used = 0
	r.head, r.tail = nilID, nilID
}

// touch marks id as most recently used if resident, counting a hit or miss.
//
//lint:hotpath
func (r *residency) touch(id schedule.TileID) bool {
	i := int32(id)
	if !r.resident[i] {
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
	if r.resident[i] {
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
		r.resident[v] = false
		r.used -= r.resBytes[v]
		r.stats.Evictions++
		r.victims = append(r.victims, v)
	}
	r.resident[i] = true
	r.resBytes[i] = bytes
	r.used += bytes
	r.pushFront(i)
	return r.victims, true
}

// remove drops id, reporting whether it was resident.
//
//lint:hotpath
func (r *residency) remove(id schedule.TileID) bool {
	i := int32(id)
	if !r.resident[i] {
		return false
	}
	r.unlink(i)
	r.resident[i] = false
	r.used -= r.resBytes[i]
	return true
}

//lint:hotpath
func (r *residency) unlink(i int32) {
	p, n := r.prev[i], r.next[i]
	if p != nilID {
		r.next[p] = n
	} else {
		r.head = n
	}
	if n != nilID {
		r.prev[n] = p
	} else {
		r.tail = p
	}
}

//lint:hotpath
func (r *residency) pushFront(i int32) {
	r.prev[i] = nilID
	r.next[i] = r.head
	if r.head != nilID {
		r.prev[r.head] = i
	}
	r.head = i
	if r.tail == nilID {
		r.tail = i
	}
}

// CompiledEngine executes compiled programs on one NPU core; it is the
// engine behind RunSchedules, ResolveProgram and ExecuteProgram. Reuse
// pattern: Init (per configuration) -> Bind (per program) -> Execute;
// Result reads the accumulated outcome.
type CompiledEngine struct {
	cfg  config.NPU
	arr  systolic.Array
	chn  dram.Channel
	opts Options
	tr   *trace.Track // nil when tracing is disabled

	resv      residency
	liveBytes []int64 // active partial-sum bytes per tile ID (0 = not live)
	keys      []schedule.TileKey
	comp      []int64 // per-op systolic cycles, precomputed at Bind
	prog      *schedule.Program

	freeDY bool

	// Trace recording (resolved.go): while rec is recording, step captures
	// each op's resolved transfer totals and tile-dimension index.
	rec recorder

	memDone     int64
	compDone    int64
	prevCompEnd int64

	res Result
}

// NewCompiledEngine builds a compiled-path engine for cfg.
func NewCompiledEngine(cfg config.NPU, opts Options) *CompiledEngine {
	e := &CompiledEngine{}
	e.Init(cfg, opts)
	return e
}

// Init (re)configures the engine for cfg and opts, clearing all run state.
// It makes pooled reuse safe: after Init the engine is indistinguishable
// from a freshly constructed one.
func (e *CompiledEngine) Init(cfg config.NPU, opts Options) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e.cfg = cfg
	e.arr = systolic.New(cfg)
	e.chn = dram.Channel{
		BytesPerCycle: cfg.BytesPerCycle(),
		BurstLatency:  cfg.DRAMLatency,
	}
	// Half of the SPM is the double-buffer fill target; the residency set
	// models the other half (Section 2.2).
	e.resv.capacity = cfg.SPMBytes / 2
	e.opts = opts
	e.freeDY = opts.FreeDYOnDW
	e.tr = nil
	if opts.Trace != nil {
		label := opts.TraceLabel
		if label == "" {
			label = "engine"
		}
		e.tr = opts.Trace.NewTrack(label)
		e.tr.SetCapacity(e.resv.capacity)
	}
	e.prog = nil
	e.keys = nil
	e.rec = recorder{}
	e.resv.stats = SPMStats{}
	e.memDone, e.compDone, e.prevCompEnd = 0, 0, 0
	e.res = Result{}
}

// Bind attaches a compiled program: residency arrays are sized to its tile
// table and the systolic cost of every op of its code is computed once (on
// a program with Order, once per table entry however often the order
// visits it). Run state
// (residency, pipeline, counters) is preserved, so Bind only follows Init
// or Reset on a fresh measurement.
func (e *CompiledEngine) Bind(prog *schedule.Program) {
	n := prog.Table.Len()
	e.resv.grow(n)
	if cap(e.liveBytes) >= n {
		e.liveBytes = e.liveBytes[:n]
	} else {
		e.liveBytes = make([]int64, n)
	}
	e.resv.reset()
	clear(e.liveBytes)
	e.keys = prog.Table.Keys
	e.prog = prog

	if cap(e.comp) >= len(prog.Code) {
		e.comp = e.comp[:len(prog.Code)]
	} else {
		e.comp = make([]int64, len(prog.Code))
	}
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

// Reset clears scratchpad contents, pipeline state and accumulated results,
// keeping the configuration and bound program.
func (e *CompiledEngine) Reset() {
	e.resv.reset()
	e.resv.stats = SPMStats{}
	clear(e.liveBytes)
	e.memDone, e.compDone, e.prevCompEnd = 0, 0, 0
	e.res = Result{}
}

// flushSPM empties the scratchpad without touching pipeline time or
// accumulated results, recording the occupancy drop on a traced run. It
// models a kernel boundary: sequential execution frees each operation's
// staged buffers, which is exactly why the conventional backward pass
// cannot reuse dY across the two gradient GEMMs (Section 3.2).
func (e *CompiledEngine) flushSPM() {
	e.resv.reset()
	clear(e.liveBytes)
	if e.tr != nil {
		e.tr.Occupancy(e.memDone, 0)
	}
}

// Execute runs the bound program: kernels in order, scratchpad flushed at
// every kernel boundary, phase spans on the trace track. A program with
// Order runs the code its order names.
func (e *CompiledEngine) Execute() {
	prog := e.prog
	if prog == nil {
		panic("sim: Execute before Bind")
	}
	for ki := range prog.Kernels {
		k := &prog.Kernels[ki]
		if ki > 0 {
			e.flushSPM()
		}
		start := e.compDone
		if prog.Order == nil {
			for i := k.Start; i < k.End; i++ {
				e.step(&prog.Code[i], e.comp[i])
			}
		} else {
			for _, j := range prog.Order[k.Start:k.End] {
				e.step(&prog.Code[j], e.comp[j])
			}
		}
		e.tr.Phase(k.Name, start, e.compDone)
	}
}

// RunProgram is Bind + Execute.
func (e *CompiledEngine) RunProgram(prog *schedule.Program) {
	e.Bind(prog)
	e.Execute()
}

// Result returns the accumulated result of all Execute calls since Reset.
func (e *CompiledEngine) Result() Result {
	r := e.res
	r.Cycles = e.compDone
	r.SPM = e.resv.stats
	return r
}

// step executes a single compiled op through the two-stage pipeline. Spill
// write-backs are accounted separately from ordinary fetches and drains so
// the trace layer can attribute stall cycles to scratchpad pressure; the
// transfer timing itself depends only on the totals.
//
//lint:hotpath
func (e *CompiledEngine) step(op *schedule.CompiledOp, compCycles int64) {
	var fetchBytes, writeBytes, spillBytes int64
	var bursts, spillBursts int

	// Output (partial-sum) tile handling.
	out := op.Out
	if op.Flags&schedule.FlagOutFirst != 0 {
		if op.Flags&schedule.FlagOutLast == 0 {
			e.liveBytes[out] = op.OutBytes
		}
		e.insert(out, op.OutBytes, &spillBytes, &spillBursts)
	} else {
		if !e.resv.touch(out) {
			// The partial was spilled earlier; bring it back.
			fetchBytes += op.OutBytes
			bursts++
			e.res.Traffic.AddRead(dram.ClassAcc, op.OutBytes)
			e.insert(out, op.OutBytes, &spillBytes, &spillBursts)
		}
	}
	if e.tr != nil {
		e.tr.Access(e.keys[out])
	}

	// Operand tiles.
	if e.tr != nil {
		e.tr.Access(e.keys[op.A])
	}
	if !e.resv.touch(op.A) {
		if !(e.freeDY && op.Flags&schedule.FlagFreeDYA != 0) {
			fetchBytes += op.ABytes
			bursts++
			e.res.Traffic.AddRead(op.AClass, op.ABytes)
		}
		e.insert(op.A, op.ABytes, &spillBytes, &spillBursts)
	}
	if e.tr != nil {
		e.tr.Access(e.keys[op.B])
	}
	if !e.resv.touch(op.B) {
		if !(e.freeDY && op.Flags&schedule.FlagFreeDYB != 0) {
			fetchBytes += op.BBytes
			bursts++
			e.res.Traffic.AddRead(op.BClass, op.BBytes)
		}
		e.insert(op.B, op.BBytes, &spillBytes, &spillBursts)
	}

	// Final accumulation: stream the finished output back to DRAM.
	if op.Flags&schedule.FlagOutLast != 0 {
		writeBytes += op.OutBytes
		bursts++
		e.res.Traffic.AddWrite(op.OutClass, op.OutBytes)
		if e.resv.remove(out) && e.tr != nil {
			e.tr.Occupancy(e.memDone, e.resv.used)
		}
		e.liveBytes[out] = 0
	}

	memCycles := e.chn.TransferCycles(fetchBytes+writeBytes+spillBytes, bursts+spillBursts)

	if e.rec.t != nil {
		e.rec.record(&e.rec.t.ops, op, fetchBytes+writeBytes+spillBytes, bursts+spillBursts)
	}

	// Double-buffered pipeline: the DMA may run at most one op ahead of the
	// compute stage (prefetch depth 2).
	memStart := max(e.memDone, e.prevCompEnd)
	memEnd := memStart + memCycles
	compStart := max(e.compDone, memEnd)
	compEnd := compStart + compCycles

	if e.tr != nil {
		e.tr.DMA(memStart, memCycles, fetchBytes, writeBytes, spillBytes, bursts+spillBursts)
		e.tr.Compute(op.Kind.String(), compStart, compCycles, int(op.Tm), int(op.Tk), int(op.Tn))
		e.tr.Stall(splitStall(e.chn, compStart-e.compDone, memCycles, spillBytes, spillBursts))
	}

	e.memDone = memEnd
	e.prevCompEnd = e.compDone
	e.compDone = compEnd

	e.res.ComputeCycles += compCycles
	e.res.MemCycles += memCycles
	e.res.Ops++
}

// insert places a tile in the residency set, charging spill writes for any
// live partial-sum tiles that get evicted. On a traced run the occupancy
// sample precedes the spill instants.
//
//lint:hotpath
func (e *CompiledEngine) insert(id schedule.TileID, bytes int64, spillBytes *int64, spillBursts *int) {
	victims, changed := e.resv.insert(id, bytes)
	if !changed {
		return
	}
	if e.tr != nil {
		e.tr.Occupancy(e.memDone, e.resv.used)
	}
	for _, v := range victims {
		vb := e.liveBytes[v]
		if vb == 0 {
			continue // clean operand tile: dropping it is free
		}
		*spillBytes += vb
		*spillBursts++
		e.res.Traffic.AddWrite(dram.ClassAcc, vb)
		e.res.Spills++
		e.tr.Spill(e.memDone, vb)
	}
}

// compiledRunner bundles the per-call state of the compiled path — engine,
// compiler and program buffers — so a pooled runner executes a steady
// stream of RunSchedules calls with no per-call allocations: the interning
// table, code buffer, residency arrays and cost table all grow to the
// largest program a worker sees and are then reused.
type compiledRunner struct {
	eng     CompiledEngine
	comp    *schedule.Compiler
	code    []schedule.CompiledOp
	kernels []schedule.Kernel
}

var compiledPool = runner.NewPool(func() *compiledRunner {
	return &compiledRunner{comp: schedule.NewCompiler()}
})

// runSchedulesCompiled lowers scheds into a pooled runner's reusable
// buffers, executes them, and leaves no dangling references in the pooled
// state.
func runSchedulesCompiled(cfg config.NPU, opts Options, scheds []schedule.Schedule) Result {
	cr := compiledPool.Get()
	cr.comp.Reset()
	cr.code = cr.code[:0]
	cr.kernels = cr.kernels[:0]
	for _, s := range scheds {
		start := len(cr.code)
		for i := range s.Ops {
			cr.code = append(cr.code, cr.comp.Lower(&s.Ops[i]))
		}
		cr.kernels = append(cr.kernels, schedule.Kernel{Name: s.Name, Start: start, End: len(cr.code)})
	}
	prog := schedule.Program{Code: cr.code, Kernels: cr.kernels, Table: cr.comp.Table()}
	r := cr.execute(cfg, opts, &prog)
	compiledPool.Put(cr)
	return r
}

// execute runs prog on the runner's engine and leaves no reference to the
// program or the trace sink in the pooled state.
func (cr *compiledRunner) execute(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	e := &cr.eng
	e.Init(cfg, opts)
	e.RunProgram(prog)
	r := e.Result()
	e.prog, e.keys, e.tr = nil, nil, nil
	return r
}
