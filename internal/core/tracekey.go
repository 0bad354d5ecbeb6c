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

// runLayerProgram simulates one layer's non-partitioned single-core
// backward program (layerProgram). Untraced in-budget runs go through the
// layer's keyed trace, shared across layers and hardware timings that
// build the same program; the rest build and execute it one-shot. The
// tuned choices are resolved first, as BackwardKernels resolves them.
func runLayerProgram(cfg config.NPU, opts sim.Options, p schedule.TileParams, pol Policy, skipDX bool) (sim.Result, Order) {
	o, v := tunedChoices(cfg, p, pol, skipDX)
	var key any
	if useTraceCache(opts, p) {
		p.Layer, p.Part = 0, 0
		k := progKey{
			p: p, spm: cfg.SPMBytes, elem: cfg.ElemBytes,
			kind: memoBackward, pol: pol, order: o, skipDX: skipDX, tuned: v,
		}
		progCensus.Lookup(k)
		key = k
	}
	res := sim.RunFamily(cfg, opts, key, 1, func(int) *schedule.Program {
		return layerProgram(cfg, p, pol, skipDX, o, v)
	}).Result(0)
	return res, o
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
// family's traces, and only a miss lowers the shape's shapeCode and builds
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

// baselineFamily runs the baseline tuner's isolated candidates, members
// indexed dxMK, dxKM, then 2+dwKN, 2+dwNK.
func baselineFamily(single config.NPU, np schedule.TileParams) sim.Family {
	return tunerFamily(single, np, famBaseline, 4, baselineMembers(np))
}

// familyMembers returns a family's member builder over np's shape code,
// lowered on the first call: build appends member i's order and kernels
// to prog, which every member reuses, emptied, with room for ops.
func familyMembers(np schedule.TileParams, ops int, build func(prog *schedule.Program, g grid, i int)) func(i int) *schedule.Program {
	var sc *shapeCode
	var prog *schedule.Program
	return func(i int) *schedule.Program {
		if sc == nil {
			sc = lowerShapes(np)
			prog = sc.program(ops)
		}
		prog.Order, prog.Kernels = prog.Order[:0], prog.Kernels[:0]
		build(prog, sc.grids[0], i)
		return prog
	}
}

// baselineMembers builds baselineFamily's members.
func baselineMembers(np schedule.TileParams) func(i int) *schedule.Program {
	return familyMembers(np, np.OpCount(), func(prog *schedule.Program, g grid, i int) {
		if i < 2 {
			prog.Order = g.appendDX(prog.Order, dxCandidate(i))
			endKernel(prog, "baseline-dX", 0)
			return
		}
		prog.Order = g.appendDW(prog.Order, dwCandidate(i-2))
		endKernel(prog, "baseline-dW", 0)
	})
}

// mergeFamily runs the fusion candidates vs (mergeCandidates(np)).
func mergeFamily(single config.NPU, np schedule.TileParams, vs []ordersVal) sim.Family {
	return tunerFamily(single, np, famMerge, len(vs), mergeMembers(np, vs))
}

// mergeMembers builds mergeFamily's members, each a block merge of two of
// the four baseline streams, which are built once.
func mergeMembers(np schedule.TileParams, vs []ordersVal) func(i int) *schedule.Program {
	var dx [2][]int32 // indexed by dxCandidate
	var dw [2][]int32 // indexed by dwCandidate
	return familyMembers(np, 2*np.OpCount(), func(prog *schedule.Program, g grid, i int) {
		if dx[0] == nil {
			n := g.ops()
			buf := make([]int32, 4*n)
			for c := range dx {
				dx[c] = g.appendDX(buf[2*c*n:2*c*n], dxCandidate(c))
				dw[c] = g.appendDW(buf[(2*c+1)*n:(2*c+1)*n], dwCandidate(c))
			}
		}
		v := vs[i]
		prog.Order = mergeStreams(prog.Order, dx[v.dx], dw[v.dw], v.block)
		endKernel(prog, "interleave", 0)
	})
}

// majorFamily runs the two chunked-major rearranged candidates, dXmajor
// then dWmajor.
func majorFamily(single config.NPU, np schedule.TileParams) sim.Family {
	return tunerFamily(single, np, famMajor, 2, majorMembers(single, np))
}

// majorMembers builds majorFamily's members, chunked for single.
func majorMembers(single config.NPU, np schedule.TileParams) func(i int) *schedule.Program {
	return familyMembers(np, 2*np.OpCount(), func(prog *schedule.Program, g grid, i int) {
		o := DXMajor
		if i == 1 {
			o = DWMajor
		}
		appendRearranged(prog, g, single, np, o, ordersVal{})
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

// runPartitionedProgram simulates one single-core partitioned plan of p
// (partitions as separate kernels, scratchpad flushed between them;
// partitionedProgram). The per-part tuned choices are resolved first;
// untraced in-budget runs fold them into the plan's key and go through its
// keyed trace, mirroring runLayerProgram, and so do plans of at most as
// many parts as the key holds. The rest build and execute the program
// one-shot.
func runPartitionedProgram(cfg config.NPU, opts sim.Options, p schedule.TileParams, scheme Scheme, parts int, plan Plan) (sim.Result, []Order) {
	orders := make([]Order, len(plan.Parts))
	tuned := make([]ordersVal, len(plan.Parts))
	for i, sub := range plan.Parts {
		orders[i], tuned[i] = tunedChoices(cfg, sub, PolRearrange, false)
	}
	var key any
	if useTraceCache(opts, p) && len(plan.Parts) <= len(partKey{}.orders) {
		// Build from the normalized parent so the program's tile ids are
		// canonical regardless of which layer resolved it first.
		p.Layer, p.Part = 0, 0
		plan = PartitionLayer(p, scheme, parts)
		k := partKey{
			p: p, spm: cfg.SPMBytes, elem: cfg.ElemBytes,
			scheme: scheme, parts: len(plan.Parts),
		}
		copy(k.orders[:], orders)
		copy(k.tuned[:], tuned)
		partCensus.Lookup(k)
		key = k
	}
	res := sim.RunFamily(cfg, opts, key, 1, func(int) *schedule.Program {
		return partitionedProgram(cfg, plan, orders, tuned)
	}).Result(0)
	return res, orders
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
// through the trace cache; the rest pass no key, so they emit and simulate
// every time.
func runMulti(cfg config.NPU, opts sim.Options, p schedule.TileParams, plan Plan, key multiKey, shared bool, emit func() [][][]schedule.Op) sim.MultiResult {
	var k any
	if useTraceCache(opts, p) {
		key.p = p
		key.p.Layer, key.p.Part = 0, 0
		key.spm, key.elem = cfg.SPMBytes, cfg.ElemBytes
		key.scheme, key.parts = plan.Scheme, len(plan.Parts)
		k = key
	}
	return sim.RunMultiKeyed(cfg, opts, k, shared, emit)
}
