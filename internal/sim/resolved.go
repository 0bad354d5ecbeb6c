package sim

import (
	"math"
	"sync/atomic"
	"unsafe"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/stats"
	"igosim/internal/systolic"
)

// Two-phase execution (DESIGN.md §3l). The SPM hit/miss outcome of a
// compiled program is a deterministic function of only (program, SPM
// residency capacity, free-dY option): DRAM bandwidth, burst latency,
// frequency and the systolic timing axes merely re-price the same access
// trace. ResolveProgram runs the full residency/LRU machinery once and
// flattens the outcome into a ResolvedTrace — per-op transfer totals plus
// a tile-dimension index — and Replay turns that trace plus any cost
// point into the exact Result the engine would have produced, with no
// maps, no LRU and no residency branching. RunFamily threads a
// byte-bounded, admission-controlled trace cache between the two so
// bandwidth/frequency sweeps resolve once and replay thousands of times.
// The cache is keyed by the caller's value key for what ran, never by a
// program pointer, so no compiled program outlives its resolution.
//
// Multi-core runs share the argument: RunMultiKeyed's residency follows a
// round-robin merge of the core streams that no timing axis can reorder.
// ResolveProgram and RunMultiKeyed record through the same engine path,
// each core at its own offset into one ops slice (its phases concatenated,
// since pipeline time carries across phase boundaries), and replayMulti
// prices every core with the same recurrence. RunMultiKeyed caches those
// traces in the same cache, through the same lookup as RunFamily.

// resolvedOp is one op's residency-resolved cost coefficients: the total
// bytes the DMA stage moves for it (fetches + final write + pressure
// spills), the burst count those bytes arrive in, and an index into the
// trace's tile-dimension table for the compute-stage cost. 8 bytes/op.
type resolvedOp struct {
	bytes  uint32
	bursts uint16
	dim    uint16
}

// tileDim is one distinct (Tm, Tk, Tn) tile shape of a program. Programs
// have a handful (interior tiles plus edge remainders), so a uint16 index
// per op suffices and replay prices each shape exactly once.
type tileDim struct {
	tm, tk, tn int32
}

// ResolvedTrace is the residency-resolved form of one compiled program
// (or of one multi-core run's phases) under one residency key. It is
// immutable after resolution and safe to replay concurrently from many
// goroutines. ops holds every core's ops in execution order, core after
// core; a single-core trace has one core.
type ResolvedTrace struct {
	ops        []resolvedOp
	dims       []tileDim
	cores      []resolvedCore
	sharedHits int64
}

// resolvedCore is one core's share of a trace: the end of its run in the
// trace's ops, and the cost-independent half of its Result (traffic by
// class, SPM hit/miss stats, spill and op counts). The cycle fields are
// recomputed per replay.
type resolvedCore struct {
	end int
	agg Result
}

// costFree returns r without its cost-point-dependent cycle fields.
func costFree(r Result) Result {
	r.Cycles, r.ComputeCycles, r.MemCycles = 0, 0, 0
	return r
}

// Ops returns the number of resolved ops (the program's op count).
func (t *ResolvedTrace) Ops() int { return len(t.ops) }

// replaySkew is a test hook: extra cycles added to every replayed op's
// compute time, so the replay-check gate can prove it distinguishes replay
// from the engine. Zero in production; set only by the hidden -replay-skew
// flag.
var replaySkew atomic.Int64

// SetReplaySkew installs a per-op compute-cycle skew applied only on the
// replay path, returning the previous value. A non-zero skew makes replay
// deliberately diverge from the engine — the teeth test for byte-identity
// gates. Never set outside tests and the replay-check harness.
func SetReplaySkew(cycles int64) int64 { return replaySkew.Swap(cycles) }

// replayScratch holds a replay call's per-dimension compute-cycle table,
// pooled so steady-state replays allocate nothing.
type replayScratch struct {
	dimCycles []int64
}

var replayPool = runner.NewPool(func() *replayScratch { return &replayScratch{} })

// Replay prices a single-core resolved trace under cfg's cost axes and
// returns the exact Result the compiled engine would produce for the same
// program — bit-identical, as long as cfg agrees with the trace's
// resolution key on SPM capacity (the replay-equivalence proptest and the
// replay-check gate hold this). Safe for concurrent use on a shared trace.
func (t *ResolvedTrace) Replay(cfg config.NPU) Result {
	if len(t.cores) != 1 {
		panic("sim: Replay of a multi-core trace")
	}
	var out [1]Result
	t.replay(cfg, out[:])
	return out[0]
}

// replayMulti prices a multi-core trace RunMultiKeyed resolved under
// cfg's cost axes and returns the exact MultiResult the engine would
// produce, as long as cfg agrees with the resolution on SPM size and core
// count.
func (t *ResolvedTrace) replayMulti(cfg config.NPU) MultiResult {
	perCore := make([]Result, len(t.cores))
	t.replay(cfg, perCore)
	return multiResult(perCore, t.sharedHits)
}

// replay prices every core's ops under cfg into out, one Result per core.
func (t *ResolvedTrace) replay(cfg config.NPU, out []Result) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	arr := systolic.New(cfg)
	chn := dram.Channel{
		BytesPerCycle: cfg.BytesPerCycle(),
		BurstLatency:  cfg.DRAMLatency,
	}
	sc := replayPool.Get()
	sc.dimCycles = resize(sc.dimCycles, len(t.dims))
	for i, d := range t.dims {
		// Same function, same arguments as the engine's Bind-time cost
		// table, so the per-op compute cycles match bit-for-bit.
		sc.dimCycles[i] = arr.TileCycles(int(d.tm), int(d.tk), int(d.tn))
	}
	skew := replaySkew.Load()
	start := 0
	for ci := range t.cores {
		c := &t.cores[ci]
		res := c.agg
		res.Cycles, res.ComputeCycles, res.MemCycles = replayOps(t.ops[start:c.end], sc.dimCycles, chn, skew)
		out[ci] = res
		start = c.end
	}
	replayPool.Put(sc)
}

// replayOps advances the double-buffered pipeline over the resolved ops —
// the same recurrence as CompiledEngine.step, minus all residency work.
//
//lint:hotpath
func replayOps(ops []resolvedOp, dimCycles []int64, chn dram.Channel, skew int64) (cycles, compSum, memSum int64) {
	var memDone, compDone, prevCompEnd int64
	for i := range ops {
		op := &ops[i]
		memCycles := chn.TransferCycles(int64(op.bytes), int(op.bursts))
		compCycles := dimCycles[op.dim] + skew

		// Prefetch depth 2: the DMA runs at most one op ahead of compute.
		memStart := max(memDone, prevCompEnd)
		memEnd := memStart + memCycles
		compStart := max(compDone, memEnd)
		compEnd := compStart + compCycles

		memDone = memEnd
		prevCompEnd = compDone
		compDone = compEnd

		compSum += compCycles
		memSum += memCycles
	}
	return compDone, compSum, memSum
}

// maxResolvedOps bounds the per-trace memory (8 B/op) a cached resolution
// may pin; larger programs stay on the engine path.
const maxResolvedOps = 1 << 20

// maxCachedResolvedOps bounds the trace size RunFamily and RunMultiKeyed
// admit to the residency cache. A grid of tiny-SPM configurations (the GPU
// validation study) produces op streams a hundred thousand ops long, and
// megabyte-scale traces would crowd the byte budget far faster than
// replays repay — each such program runs once per layer memo anyway.
// Oversized runs are resolved but not admitted; the result is bit-identical
// to the engine's (PropResolvedReplayEquivalence).
const maxCachedResolvedOps = 1 << 15

// ResolveProgram executes prog on a fresh single-core compiled engine
// exactly as ExecuteProgram would, additionally recording the residency-
// resolved trace. The trace is nil when the program is not representable
// (per-op byte/burst totals or the dimension table overflow the compact
// encoding, or the program exceeds the trace size bound) — callers then
// simply keep using the engine path. Tracing is unsupported here: traces
// carry no event stream, so traced runs must resolve nothing.
func ResolveProgram(cfg config.NPU, opts Options, prog *schedule.Program) (Result, *ResolvedTrace) {
	if opts.Trace != nil {
		panic("sim: ResolveProgram with tracing enabled")
	}
	return runSingle(cfg, opts, prog, true)
}

// recorder builds a ResolvedTrace while an engine runs. A nil t means the
// engine is not recording; ok turns false, discarding the trace, when an
// op's totals or the dimension table overflow the compact encoding. The
// run's Result is unaffected either way. tm/tk/tn/dim are a last-value
// cache over the dimension table.
type recorder struct {
	t          *ResolvedTrace
	ok         bool
	tm, tk, tn int32
	dim        uint16
}

// startRecording begins recording the bound program's resolved trace. The
// trace stores every core's ops core after core, so each core records at
// its own precomputed offset into one ops slice. Programs over
// maxResolvedOps record nothing.
func (e *CompiledEngine) startRecording() {
	// Count each core's ops into recAt, then turn the counts into offsets.
	for _, k := range e.prog.Kernels {
		e.pipes[k.Core].recAt += k.End - k.Start
	}
	n := 0
	for ci := range e.pipes {
		p := &e.pipes[ci]
		p.recAt, n = n, n+p.recAt
	}
	if n > maxResolvedOps {
		return
	}
	e.rec = recorder{t: &ResolvedTrace{ops: make([]resolvedOp, n)}, ok: true, tm: -1, tk: -1, tn: -1}
}

// finishRecording returns the recorded trace, or nil when the run recorded
// nothing or was not representable, and stops recording.
func (e *CompiledEngine) finishRecording() *ResolvedTrace {
	rec := e.rec
	e.rec = recorder{}
	if !rec.ok {
		return nil
	}
	t := rec.t
	t.cores = make([]resolvedCore, len(e.pipes))
	for ci := range e.pipes {
		t.cores[ci] = resolvedCore{end: e.pipes[ci].recAt, agg: costFree(e.coreResult(ci))}
	}
	t.sharedHits = e.sharedHits
	return t
}

// record stores one op's resolved coefficients at slot *at of the trace's
// ops and advances *at.
//
//lint:hotpath
func (r *recorder) record(at *int, op *schedule.CompiledOp, bytes int64, bursts int) {
	if !r.ok {
		return
	}
	if bytes < 0 || bytes > math.MaxUint32 || bursts < 0 || bursts > math.MaxUint16 {
		r.ok = false
		return
	}
	if op.Tm != r.tm || op.Tk != r.tk || op.Tn != r.tn {
		t := r.t
		found := -1
		for i := range t.dims {
			d := &t.dims[i]
			if d.tm == op.Tm && d.tk == op.Tk && d.tn == op.Tn {
				found = i
				break
			}
		}
		if found < 0 {
			if len(t.dims) >= math.MaxUint16 {
				r.ok = false
				return
			}
			t.dims = append(t.dims, tileDim{tm: op.Tm, tk: op.Tk, tn: op.Tn})
			found = len(t.dims) - 1
		}
		r.tm, r.tk, r.tn = op.Tm, op.Tk, op.Tn
		r.dim = uint16(found)
	}
	r.t.ops[*at] = resolvedOp{bytes: uint32(bytes), bursts: uint16(bursts), dim: r.dim}
	*at++
}

// resolvedKey identifies one cache entry: what ran, named by its caller's
// value key (a single-core program family, or one multi-core run's
// phases), and the only axes residency depends on beyond it — SPM
// residency capacity, core count, SPM placement and free-dY. Everything
// else in config.NPU is replay-safe.
type resolvedKey struct {
	key      any
	capacity int64
	cores    int
	shared   bool
	freeDY   bool
}

// defaultResolvedCacheBytes bounds what the resolved-trace cache pins.
// Traces are its only retained cost: 8 B/op plus a small per-trace and
// per-entry overhead (traceBytes). The budget holds a grid's whole
// distinct-trace working set — the benchmark's serve-unique workload (five
// edge models × three SPM sizes) ends holding 50 MiB of traces and its
// sweep-dse workload 71 MiB, without an eviction — while a process fed an
// open-ended stream of distinct shapes stays bounded. Sweeps with wider
// working sets raise it via SetResidencyCacheBytes (-residency-cache, in
// MiB).
const defaultResolvedCacheBytes = 128 << 20

// entryOverhead approximates what one cache entry pins beyond its traces:
// the boxed caller key, the LRU entry and its map slot.
const entryOverhead = 256

// traceBytes weighs one cache entry: its traces' op and dimension tables
// and fixed parts, plus entryOverhead.
func traceBytes(traces []*ResolvedTrace) int {
	n := entryOverhead + 8*cap(traces)
	for _, t := range traces {
		n += int(unsafe.Sizeof(*t)) +
			cap(t.ops)*int(unsafe.Sizeof(resolvedOp{})) +
			cap(t.dims)*int(unsafe.Sizeof(tileDim{})) +
			cap(t.cores)*int(unsafe.Sizeof(resolvedCore{}))
	}
	return n
}

var (
	resolvedCounters = stats.NewCacheCounters("sim/resolved")
	resolvedCache    = runner.NewWeighted[resolvedKey, []*ResolvedTrace](defaultResolvedCacheBytes, traceBytes, resolvedCounters)
	// resolvedCensus is the cache's distinct-key census, counted per
	// trace (a family key counts once per member), which — unlike the
	// hit/miss split or the surviving resident set — does not depend on
	// worker interleaving. Manifests and the sweep benchmark's
	// "resolutions" leaf read it as Entries. Keys are recorded on a miss
	// only: a hit key missed before it was admitted.
	resolvedCensus = runner.NewCensus[resolvedKey](resolvedCounters)
	// Wall domain: under a layer-memo miss race two workers may both
	// resolve or replay the same key, so the executed split varies with
	// -j. The deterministic census is resolvedCensus.
	resolvedPhases = stats.NewPhaseCounters("sim/resolved")
)

// SetResidencyCacheBytes sets the resolved-trace cache's byte budget,
// returning the previous value. Budget 0 disables two-phase execution
// entirely: every keyed run executes the engine (the checkable slow path
// the replay-check gate compares against).
func SetResidencyCacheBytes(n int) int {
	prev := resolvedCache.Cap()
	resolvedCache.SetCap(max(n, 0))
	return prev
}

// ResidencyCacheBytes returns the resolved-trace cache's byte budget.
func ResidencyCacheBytes() int { return resolvedCache.Cap() }

// ResolvedCacheBytes returns the bytes the resident traces pin, as the
// budget counts them.
func ResolvedCacheBytes() int { return resolvedCache.Weight() }

// ResetResolvedCache drops every cached trace, the distinct-key census and
// the phase counters, returning two-phase execution to a cold state.
func ResetResolvedCache() {
	resolvedCache.Reset()
	resolvedCensus.Reset()
	resolvedPhases.Reset()
}

// ResolvedCacheStats returns the resolved-trace cache's snapshot. Entries
// is the distinct-key census (deterministic at any -j); the hit/miss split
// is wall-domain.
func ResolvedCacheStats() stats.CacheSnapshot { return resolvedCache.Stats() }

// ResolvedPhaseStats returns the resolve/replay execution split
// (wall-domain; see ResolvedCacheStats for the deterministic census).
func ResolvedPhaseStats() stats.PhaseSnapshot { return resolvedPhases.Snapshot() }
