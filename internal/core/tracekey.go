package core

import (
	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/stats"
)

// Trace-family keys (DESIGN.md §3k). The layer memo (memo.go) caches
// *outcomes*, so it only helps when the full (hardware fingerprint, shape,
// policy) point repeats. A serving workload's near-duplicate queries vary
// exactly the timing half of the fingerprint — DRAM bandwidth, latency,
// clock — while the emitted tile streams stay identical: op emission
// depends on the configuration only through ElemBytes and SPMBytes (chunk
// sizing) plus the *tuned candidate choices*, never on how fast the
// simulated DRAM moves. Naming a run's program by that narrower value key
// lets sim.RunFamily keep the program's resolved trace, and nothing else,
// so a what-if bandwidth sweep pays schedule emission, lowering and
// residency resolution once and replays the trace under each timing.
//
// Soundness: the tuned candidates ARE bandwidth-dependent (the tuner
// simulates to pick them), so they are resolved first — through their own
// fingerprint-keyed caches — and included in the key. Two configurations
// that tune to different candidates get different keys; two that tune
// alike share one. Tile ids are normalized (Layer/Part zeroed) exactly as
// in the layer memo: a bijective renaming of tile keys cannot change
// residency behaviour, so the shared trace's results are identical to a
// per-layer simulation — but a trace's labels would not be, which is why
// traced runs bypass the keys.
//
// Each key family keeps its old cache name in stats.CacheReport as a
// census of lookups (runner.Census): Entries counts the distinct keys, at
// first lookup, so manifests read the same numbers at any -j.

// progKey identifies one layer program up to tensor renaming and hardware
// timing.
type progKey struct {
	p      schedule.TileParams // Layer/Part zeroed
	spm    int64               // cfg.SPMBytes: sizes baseline/fused chunks
	elem   int                 // cfg.ElemBytes: sizes every tile transfer
	kind   memoKind
	pol    Policy
	order  Order
	skipDX bool
	tuned  ordersVal // zero when the stream uses no tuned candidates
}

var progCensus = runner.NewCensus[progKey](stats.NewCacheCounters("core/compiled-prog"))

// useTraceCache reports whether a RunBackward/RunForward call on layer p
// can go through the keyed trace families: the run must be untraced (a
// shared trace stands for normalized tile ids, which results are
// invariant to but trace labels are not), and the layer's op grid must be
// within panelOpBudget — past it a layer's traces crowd the cache faster
// than replays repay, so those layers take the one-shot path.
func useTraceCache(opts sim.Options, p schedule.TileParams) bool {
	return opts.Trace == nil && p.OpCount() <= panelOpBudget
}

// runBackwardKeyed simulates one layer's non-partitioned backward pass
// through its keyed trace, sharing it across layers and hardware timings
// that emit the same stream. The access order is resolved the same way
// BackwardKernels resolves it.
func runBackwardKeyed(cfg config.NPU, opts sim.Options, p schedule.TileParams, pol Policy, skipDX bool) (sim.Result, Order) {
	np := p
	np.Layer, np.Part = 0, 0
	key := progKey{
		p: np, spm: cfg.SPMBytes, elem: cfg.ElemBytes,
		kind: memoBackward, pol: pol, skipDX: skipDX,
	}
	key.order, key.tuned = tunedChoices(cfg, np, pol, skipDX)
	progCensus.Lookup(key)
	res := sim.RunFamily(cfg, opts, key, 1, func(int) *schedule.Program {
		kernels, _ := BackwardKernels(cfg, np, pol, skipDX)
		return sim.CompileSchedules(kernels...)
	}).Result(0)
	return res, key.order
}

// tunedChoices resolves the tuned choices that shape p's backward stream
// under pol, the same ones BackwardKernels makes: the access order, and
// for streams built from tuned candidates (the baseline pair, or a fused
// interleave) the candidate choice, zero otherwise.
func tunedChoices(cfg config.NPU, p schedule.TileParams, pol Policy, skipDX bool) (Order, ordersVal) {
	switch {
	case skipDX, pol == PolBaseline:
		return OnlyInterleave, baselineChoices(cfg, p)
	case pol == PolInterleave:
		return OnlyInterleave, interleaveChoices(cfg, p)
	default: // PolRearrange and above
		o := BestOrderSimulated(cfg, p)
		if o == OnlyInterleave {
			return o, interleaveChoices(cfg, p)
		}
		return o, ordersVal{}
	}
}

// runForwardKeyed simulates one layer's forward pass through its keyed
// trace. The forward schedule depends on the tile parameters alone, so
// the key carries no configuration fields beyond the element size already
// inside TileParams.
func runForwardKeyed(cfg config.NPU, opts sim.Options, p schedule.TileParams) sim.Result {
	np := p
	np.Layer, np.Part = 0, 0
	key := progKey{p: np, elem: np.ElemBytes, kind: memoForward}
	progCensus.Lookup(key)
	return sim.RunFamily(cfg, opts, key, 1, func(int) *schedule.Program {
		return sim.CompileSchedules(schedule.Forward(np))
	}).Result(0)
}

// Candidate families. The tuners (baselineChoices, interleaveChoices,
// BestOrderSimulated) re-simulate their candidate schedules for every
// hardware fingerprint, because the winner is timing-dependent — but the
// candidate *streams* themselves depend on the configuration only through
// SPMBytes (chunk sizing) and ElemBytes, exactly like the layer programs
// above. A tuner therefore names its whole candidate set — baseline pair,
// fusion set, chunked majors — by one panelKey and makes ONE sim.RunFamily
// lookup per tuning call: a bandwidth sweep's re-tuning replays the
// family's traces, and only a miss lowers the shape's base code and builds
// the candidates, one at a time, dropping each once resolved. (An earlier
// revision keyed each candidate individually; boxing and hashing the wide
// per-candidate key ~10⁴ times per request cost as much as the replays it
// guarded.) Above panelOpBudget the family runs unkeyed on the one-shot
// engine and keeps nothing.

// panelKey identifies one shape's candidate family up to tensor renaming
// and hardware timing.
type panelKey struct {
	p    schedule.TileParams // Layer/Part zeroed
	spm  int64
	elem int
	fam  family
}

// family names a tuner's candidate set.
type family uint8

const (
	famBaseline family = iota // dX MK/KM, dW KN/NK in isolation
	famMerge                  // the fusion set, mergeCandidates order
	famMajor                  // dXmajor, dWmajor chunked
)

// panelCensus keeps each family's lookup census under its old panel
// cache name.
var panelCensus = [...]*runner.Census[panelKey]{
	famBaseline: runner.NewCensus[panelKey](stats.NewCacheCounters("core/baseline-panel")),
	famMerge:    runner.NewCensus[panelKey](stats.NewCacheCounters("core/merge-panel")),
	famMajor:    runner.NewCensus[panelKey](stats.NewCacheCounters("core/major-panel")),
}

// panelOpBudget bounds the single-GEMM op count up to which candidate
// families (and the layer runs of useTraceCache) are keyed. A trace pays
// off when the same shape is re-tuned under many hardware fingerprints
// (bandwidth sweeps), whose shapes are small; the huge op grids of
// tiny-SPM configurations (the GPU validation study's 128 KB buffer)
// would pin a dozen multi-megabyte traces per shape that each replay
// once. Oversized shapes run every candidate on the one-shot engine.
const panelOpBudget = 1 << 13

// tunerFamily runs one shape's candidate family under single, whose n
// members member builds, keyed within panelOpBudget and one-shot above it.
func tunerFamily(single config.NPU, np schedule.TileParams, fam family, n int, member func(i int) *schedule.Program) sim.Family {
	var key any
	if np.OpCount() <= panelOpBudget {
		k := panelKey{p: np, spm: single.SPMBytes, elem: single.ElemBytes, fam: fam}
		panelCensus[fam].Lookup(k)
		key = k
	}
	return sim.RunFamily(single, sim.Options{}, key, n, member)
}

// baseCode is one canonical shape's four base streams — dX MK/KM and dW
// KN/NK, in that order — lowered once, straight from their generators,
// through one shared compiler. The shared symbol table makes every block
// merge of this code a valid program over the same table, so each
// baseline and fusion candidate is a view or a merge of it, never a
// re-emission and re-lowering.
type baseCode struct {
	streams [4][]schedule.CompiledOp
	table   schedule.TileTable
}

func lowerBase(np schedule.TileParams) *baseCode {
	c := schedule.NewCompiler()
	n := np.OpCount() // every single-GEMM stream emits exactly n ops
	code := make([]schedule.CompiledOp, 0, 4*n)
	for _, s := range []schedule.OpStream{
		schedule.BaselineDXStream(np, schedule.DXOrderMK),
		schedule.BaselineDXStream(np, schedule.DXOrderKM),
		schedule.BaselineDWStream(np, schedule.DWOrderKN),
		schedule.BaselineDWStream(np, schedule.DWOrderNK),
	} {
		code = c.CompileStream(code, s)
	}
	b := &baseCode{table: c.Table()}
	for i := range b.streams {
		b.streams[i] = code[i*n : (i+1)*n]
	}
	return b
}

// program wraps code as a one-kernel program over the shared table.
func (b *baseCode) program(code []schedule.CompiledOp) *schedule.Program {
	return &schedule.Program{Code: code, Kernels: []schedule.Kernel{{End: len(code)}}, Table: b.table}
}

// baselineFamily runs the baseline tuner's isolated candidates, members
// indexed dxMK, dxKM, then 2+dwKN, 2+dwNK: views of the base code.
func baselineFamily(single config.NPU, np schedule.TileParams) sim.Family {
	var b *baseCode
	return tunerFamily(single, np, famBaseline, 4, func(i int) *schedule.Program {
		if b == nil {
			b = lowerBase(np)
		}
		return b.program(b.streams[i])
	})
}

// mergeFamily runs the fusion candidates vs (mergeCandidates(np)), each
// block-merged from the base code into one reused buffer.
func mergeFamily(single config.NPU, np schedule.TileParams, vs []ordersVal) sim.Family {
	var b *baseCode
	var buf []schedule.CompiledOp
	return tunerFamily(single, np, famMerge, len(vs), func(i int) *schedule.Program {
		if b == nil {
			b = lowerBase(np)
		}
		v := vs[i]
		buf = mergeStreams(buf[:0], b.streams[v.dx], b.streams[2+int(v.dw)], v.block)
		return b.program(buf)
	})
}

// majorFamily runs the two chunked-major rearranged candidates, dXmajor
// then dWmajor.
func majorFamily(single config.NPU, np schedule.TileParams) sim.Family {
	return tunerFamily(single, np, famMajor, 2, func(i int) *schedule.Program {
		if i == 0 {
			return sim.CompileSchedules(FusedDXMajor(single, np))
		}
		return sim.CompileSchedules(FusedDWMajor(single, np))
	})
}

// tuneParams canonicalizes tile parameters to the equivalence the tuning
// caches already declare (ordersKey keys on dims/tiling/elem/xfactor
// only): tensor-instance ids, partition offsets and partial-output
// redirection are bijective tile renamings that cannot change residency
// or cycle outcomes. Tuners lower their candidates from the canonical
// representative so the family census does not depend on which
// equivalent variant reached the tuner first (a -j determinism property
// the manifest gate checks).
func tuneParams(p schedule.TileParams) schedule.TileParams {
	p.Layer, p.Part = 0, 0
	p.OffM, p.OffK, p.OffN = 0, 0, 0
	p.DXPartial, p.DWPartial = false, false
	return p
}

// partKey identifies one single-core partitioned plan's program up to
// tensor renaming and hardware timing: the parent shape, the plan axes,
// and the per-part tuned choices (access order, and for interleave orders
// the fused-stream candidates) that shape each part's stream.
type partKey struct {
	p      schedule.TileParams // Layer/Part zeroed (parent)
	spm    int64
	elem   int
	scheme Scheme
	parts  int
	orders [4]Order
	tuned  [4]ordersVal
}

var partCensus = runner.NewCensus[partKey](stats.NewCacheCounters("core/partitioned-prog"))

// runPartitionedKeyed simulates one single-core partitioned plan
// (partitions as separate kernels, scratchpad flushed between them)
// through its keyed trace. The per-part tuned choices are resolved first
// and folded into the key, mirroring runBackwardKeyed; plans with more
// parts than the key holds are not keyed (ok=false).
func runPartitionedKeyed(cfg config.NPU, opts sim.Options, p schedule.TileParams, scheme Scheme, parts int, plan Plan) (sim.Result, []Order, bool) {
	if len(plan.Parts) > len(partKey{}.orders) {
		return sim.Result{}, nil, false
	}
	np := p
	np.Layer, np.Part = 0, 0
	key := partKey{
		p: np, spm: cfg.SPMBytes, elem: cfg.ElemBytes,
		scheme: scheme, parts: len(plan.Parts),
	}
	orders := make([]Order, len(plan.Parts))
	for i, sub := range plan.Parts {
		key.orders[i], key.tuned[i] = tunedChoices(cfg, sub, PolRearrange, false)
		orders[i] = key.orders[i]
	}
	partCensus.Lookup(key)
	res := sim.RunFamily(cfg, opts, key, 1, func(int) *schedule.Program {
		// Rebuild from the normalized parent so the program's tile ids are
		// canonical regardless of which layer resolved it first.
		nplan := PartitionLayer(np, scheme, parts)
		scheds := make([]schedule.Schedule, 0, len(nplan.Parts))
		for i, sub := range nplan.Parts {
			sched, _ := RearrangedWithOrder(cfg, sub, key.orders[i])
			scheds = append(scheds, sched)
		}
		return sim.CompileSchedules(scheds...)
	}).Result(0)
	return res, orders, true
}

// multiKey identifies one multi-core run's phases up to tensor renaming
// and hardware timing: the parent shape, what every part runs (kind,
// policy, dW-only), the plan's scheme and part count — which together fix
// the part shapes — and the per-part tuned choices, resolved first as in
// partKey. sim.RunMultiKeyed completes it with the SPM size, core count,
// placement and free-dY option.
type multiKey struct {
	p      schedule.TileParams // parent, Layer/Part zeroed
	spm    int64
	elem   int
	kind   memoKind
	pol    Policy
	skipDX bool
	scheme Scheme
	parts  int
	orders [schedule.MaxPartitions]Order
	tuned  [schedule.MaxPartitions]ordersVal
}

// runMulti simulates a plan's multi-core phases, which emit builds. key
// carries what the parts run and their tuned choices; runMulti completes
// it from p, plan and cfg. Untraced runs of layers within panelOpBudget go
// through the trace cache; the rest emit and simulate every time.
func runMulti(cfg config.NPU, opts sim.Options, p schedule.TileParams, plan Plan, key multiKey, shared bool, emit func() [][][]schedule.Op) sim.MultiResult {
	if !useTraceCache(opts, p) {
		return sim.RunMultiPhased(cfg, opts, emit(), shared)
	}
	key.p = p
	key.p.Layer, key.p.Part = 0, 0
	key.spm, key.elem = cfg.SPMBytes, cfg.ElemBytes
	key.scheme, key.parts = plan.Scheme, len(plan.Parts)
	return sim.RunMultiKeyed(cfg, opts, key, shared, emit)
}
