package sim

import (
	"math"
	"sync"
	"sync/atomic"

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
// maps, no LRU and no residency branching. RunProgram threads a bounded,
// admission-controlled trace cache between the two so bandwidth/frequency
// sweeps resolve once and replay thousands of times.

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
// under one (SPM capacity, free-dY) key. It is immutable after resolution
// and safe to replay concurrently from many goroutines. agg carries the
// cost-independent half of the Result (traffic by class, SPM hit/miss
// stats, spill and op counts); the cycle fields are recomputed per replay.
type ResolvedTrace struct {
	ops  []resolvedOp
	dims []tileDim
	agg  Result
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

// Replay prices the resolved trace under cfg's cost axes and returns the
// exact Result the compiled engine would produce for the same program —
// bit-identical, as long as cfg agrees with the trace's resolution key on
// SPM capacity (the replay-equivalence proptest and the replay-check gate
// hold this). Safe for concurrent use on a shared trace.
func (t *ResolvedTrace) Replay(cfg config.NPU) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	arr := systolic.New(cfg)
	chn := dram.Channel{
		BytesPerCycle: cfg.BytesPerCycle(),
		BurstLatency:  cfg.DRAMLatency,
	}
	sc := replayPool.Get()
	if cap(sc.dimCycles) >= len(t.dims) {
		sc.dimCycles = sc.dimCycles[:len(t.dims)]
	} else {
		sc.dimCycles = make([]int64, len(t.dims))
	}
	for i, d := range t.dims {
		// Same function, same arguments as the engine's Bind-time cost
		// table, so the per-op compute cycles match bit-for-bit.
		sc.dimCycles[i] = arr.TileCycles(int(d.tm), int(d.tk), int(d.tn))
	}
	cycles, compSum, memSum := replayOps(t.ops, sc.dimCycles, chn, replaySkew.Load())
	replayPool.Put(sc)
	res := t.agg
	res.Cycles = cycles
	res.ComputeCycles = compSum
	res.MemCycles = memSum
	return res
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

// maxCachedResolvedOps bounds the program size RunProgram admits to the
// residency cache. The entry cap bounds trace count, not bytes: a grid of
// tiny-SPM configurations (the GPU validation study) produces op streams a
// hundred thousand ops long, and pinning hundreds of megabyte-scale traces
// grows the heap far faster than replays repay — each such program runs
// once per layer memo anyway. Oversized programs take the one-shot engine
// path, which is bit-identical (PropResolvedReplayEquivalence).
const maxCachedResolvedOps = 1 << 15

// ResolveProgram executes prog on a fresh single-core compiled engine
// exactly as RunProgram would, additionally recording the residency-
// resolved trace. The trace is nil when the program is not representable
// (per-op byte/burst totals or the dimension table overflow the compact
// encoding, or the program exceeds the trace size bound) — callers then
// simply keep using the engine path. Tracing is unsupported here: traces
// carry no event stream, so traced runs must resolve nothing.
func ResolveProgram(cfg config.NPU, opts Options, prog *schedule.Program) (Result, *ResolvedTrace) {
	if opts.Trace != nil {
		panic("sim: ResolveProgram with tracing enabled")
	}
	cr := compiledPool.Get()
	e := &cr.eng
	e.Init(cfg, opts)
	e.rec = &ResolvedTrace{ops: make([]resolvedOp, 0, len(prog.Code))}
	e.recOK = len(prog.Code) <= maxResolvedOps
	e.RunProgram(prog)
	res := e.Result()
	var rt *ResolvedTrace
	if e.recOK {
		rt = e.rec
		rt.agg = res
		// The cycle fields are cost-point-dependent; replay recomputes them.
		rt.agg.Cycles, rt.agg.ComputeCycles, rt.agg.MemCycles = 0, 0, 0
	}
	e.rec, e.recOK = nil, false
	e.prog, e.keys, e.tr = nil, nil, nil // don't retain the program view
	compiledPool.Put(cr)
	countPass(res)
	return res, rt
}

// record captures one op's resolved coefficients. Falls back (recOK=false,
// trace discarded) when totals overflow the compact encoding; the run's
// Result is unaffected either way.
//
//lint:hotpath
func (e *CompiledEngine) record(op *schedule.CompiledOp, bytes int64, bursts int) {
	if !e.recOK {
		return
	}
	if bytes < 0 || bytes > math.MaxUint32 || bursts < 0 || bursts > math.MaxUint16 {
		e.recOK = false
		return
	}
	if op.Tm != e.recTm || op.Tk != e.recTk || op.Tn != e.recTn {
		t := e.rec
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
				e.recOK = false
				return
			}
			t.dims = append(t.dims, tileDim{tm: op.Tm, tk: op.Tk, tn: op.Tn})
			found = len(t.dims) - 1
		}
		e.recTm, e.recTk, e.recTn = op.Tm, op.Tk, op.Tn
		e.recDim = uint16(found)
	}
	e.rec.ops = append(e.rec.ops, resolvedOp{bytes: uint32(bytes), bursts: uint16(bursts), dim: e.recDim})
}

// resolvedKey identifies one resolution: the retained program (canonical
// pointer — CompileSchedules callers share programs through identity
// caches) and the only two axes residency depends on. Everything else in
// config.NPU is replay-safe.
type resolvedKey struct {
	prog     *schedule.Program
	capacity int64
	freeDY   bool
}

// defaultResolvedCacheCap bounds the resolved-trace cache. Traces cost
// 8 B/op plus the aggregate result, so typical programs pin a few KiB per
// entry. The default must comfortably hold a grid's distinct-trace working
// set — the canonical 240-point sweep needs ~1.6k (mostly partition tuning
// candidates) and an undersized cache re-resolves instead of replaying,
// ~8× the work — while keeping worst-case pin bounded; sweeps with wider
// working sets raise it via SetResidencyCacheCap (-residency-cache).
const defaultResolvedCacheCap = 8192

var (
	resolvedCounters = stats.NewCacheCounters("sim/resolved")
	resolvedCache    = runner.NewBounded[resolvedKey, *ResolvedTrace](defaultResolvedCacheCap, resolvedCounters)
	resolvedCensus   = newKeyCensus(resolvedCounters)
	// Wall domain: under a layer-memo miss race two workers may both
	// resolve or replay the same key, so the executed split varies with
	// -j. The deterministic census is resolvedCensus.
	resolvedPhases = stats.NewPhaseCounters("sim/resolved")
)

// keyCensus is the resolved-trace cache's distinct-key census: every key
// ever looked up since the last reset, which — unlike the hit/miss split
// or the surviving resident set — does not depend on worker interleaving.
// It is installed as the cache counters' sizer, so manifests and the
// sweep benchmark's "resolutions" leaf read it as Entries. RunProgram
// records keys on a miss only: a hit key missed before it was admitted.
type keyCensus struct {
	mu   sync.Mutex
	keys map[resolvedKey]struct{}
}

func newKeyCensus(counters *stats.CacheCounters) *keyCensus {
	c := &keyCensus{keys: make(map[resolvedKey]struct{})}
	counters.SetSizer(c.size)
	return c
}

func (c *keyCensus) add(k resolvedKey) {
	c.mu.Lock()
	c.keys[k] = struct{}{}
	c.mu.Unlock()
}

func (c *keyCensus) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys)
}

func (c *keyCensus) reset() {
	c.mu.Lock()
	c.keys = make(map[resolvedKey]struct{})
	c.mu.Unlock()
}

// SetResidencyCacheCap sets the resolved-trace cache capacity (entries),
// returning the previous value. Capacity 0 disables two-phase execution
// entirely: RunProgram runs the engine for every call (the checkable slow
// path the replay-check gate compares against).
func SetResidencyCacheCap(n int) int {
	prev := resolvedCache.Cap()
	if n < 0 {
		n = 0
	}
	resolvedCache.SetCap(n)
	return prev
}

// ResidencyCacheCap returns the current resolved-trace cache capacity.
func ResidencyCacheCap() int { return resolvedCache.Cap() }

// ResetResolvedCache drops every cached trace, the distinct-key census and
// the phase counters, returning two-phase execution to a cold state.
func ResetResolvedCache() {
	resolvedCache.Reset()
	resolvedCensus.reset()
	resolvedPhases.Reset()
}

// ResolvedCacheStats returns the resolved-trace cache's snapshot. Entries
// is the distinct-key census (deterministic at any -j); the hit/miss split
// is wall-domain.
func ResolvedCacheStats() stats.CacheSnapshot { return resolvedCache.Stats() }

// ResolvedPhaseStats returns the resolve/replay execution split
// (wall-domain; see ResolvedCacheStats for the deterministic census).
func ResolvedPhaseStats() stats.PhaseSnapshot { return resolvedPhases.Snapshot() }
