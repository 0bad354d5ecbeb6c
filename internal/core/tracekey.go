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
// clock — while the programs stay identical: a program depends on the
// configuration only through ElemBytes and SPMBytes (chunk sizing) plus
// the *tuned candidate choices*, never on how fast the simulated DRAM
// moves. Naming a run's program by that narrower value key lets
// sim.RunFamily and sim.RunMultiKeyed keep the program's resolved trace,
// and nothing else, so a what-if bandwidth sweep pays lowering and
// residency resolution once and replays the trace under each timing.
//
// Every backward plan — a whole layer (a one-part plan), a single-core
// partitioned plan or a multi-core plan — is one program (planProgram),
// named by one planKey and run through one keyed path (runPlan);
// runForwardPlan is the forward twin.
//
// Soundness: the tuned candidates ARE bandwidth-dependent (the tuner
// simulates to pick them), so they are resolved first — through their own
// fingerprint-keyed caches — and included in the key. Two configurations
// that tune to different candidates get different keys; two that tune
// alike share one. Keys normalize the parent's tile ids (Layer/Part
// zeroed) exactly as the layer memo does: a bijective renaming of tile
// keys cannot change residency behaviour, so the shared trace's results
// are identical to a per-layer simulation. Traced runs bypass the keys
// because a resolved trace keeps per-op transfer totals, not the event
// stream and reuse distances a trace sink needs: only the engine can
// serve them. Runs into a summary sink, which keeps only folded metrics,
// have their own memo keyed by the same plan key (summarymemo.go).
//
// Single-core plans keep their old cache names in stats.CacheReport as
// censuses of lookups (runner.Census): Entries counts the distinct keys,
// at first lookup, so manifests read the same numbers at any -j.

// planKey identifies one plan's program up to tensor renaming and hardware
// timing: the parent shape, what every part runs (kind, policy, dW-only),
// the plan's scheme and part count — which together fix the part shapes —
// and each part's tuned choices: the access order, and for streams built
// from tuned candidates (the baseline pair, or a fused interleave) the
// candidate choice, zero otherwise. Forward keys carry no SPM or element
// size: the forward stream depends on the tile parameters alone. sim
// completes the key with the residency capacity, core count, placement
// and free-dY option.
type planKey struct {
	p      schedule.TileParams // parent, Layer/Part zeroed
	spm    int64               // cfg.SPMBytes: sizes baseline/fused chunks
	elem   int                 // cfg.ElemBytes: sizes every tile transfer
	kind   memoKind
	pol    Policy
	skipDX bool
	scheme Scheme
	parts  int
	orders [schedule.MaxPartitions]Order
	tuned  [schedule.MaxPartitions]ordersVal
}

// Whole layers count their keys under the old layer-program cache name and
// single-core partitioned plans under the old partitioned-program one;
// multi-core runs count in neither.
var (
	progCensus = runner.NewCensus[planKey](stats.NewCacheCounters("core/compiled-prog"))
	partCensus = runner.NewCensus[planKey](stats.NewCacheCounters("core/partitioned-prog"))
)

// useTraceCache reports whether a run on layer p can go through the keyed
// trace families: the run must be untraced (a resolved trace carries no
// event stream, so a traced run executes on the engine), and the layer's
// op grid must be within panelOpBudget — past it
// a layer's traces crowd the cache faster than replays repay, so those
// layers take the one-shot path.
func useTraceCache(opts sim.Options, p schedule.TileParams) bool {
	return opts.Trace == nil && p.OpCount() <= panelOpBudget
}

// runPlan simulates the backward pass of plan, a partitioning of p, under
// pol, dW-only when skipDX: on one core, part after part with the
// scratchpad flushed between kernels, or when multi one part per core,
// shared placing every part's tiles in one scratchpad. The parts' tuned
// choices are resolved first, as the emitters resolve them. The
// outcome adds the plan's reductions and reports the last part's access
// order (identical across equal splits).
func runPlan(cfg config.NPU, opts sim.Options, p schedule.TileParams, plan Plan, pol Policy, skipDX, multi, shared bool) LayerOutcome {
	n := len(plan.Parts)
	k := planKey{
		spm: cfg.SPMBytes, elem: cfg.ElemBytes, kind: memoBackward,
		pol: pol, skipDX: skipDX, scheme: plan.Scheme, parts: n,
	}
	for i, sub := range plan.Parts {
		k.orders[i], k.tuned[i] = tunedChoices(cfg, sub, pol, skipDX)
	}
	out := runKeyedPlan(cfg, opts, p, k, multi, shared, func() *schedule.Program {
		return planProgram(cfg, plan.Parts, pol, skipDX, multi, k.orders[:n], k.tuned[:n])
	})
	out.addReductions(plan.ReduceResults(cfg))
	out.Dims, out.Order, out.Scheme, out.Parts = p.Dims, k.orders[n-1], plan.Scheme, n
	return out
}

// runForwardPlan is runPlan's forward twin: plan's parts run the forward
// pass on one core or, when multi, one part per core on private buffers
// (conventional data parallelism).
func runForwardPlan(cfg config.NPU, opts sim.Options, p schedule.TileParams, plan Plan, multi bool) LayerOutcome {
	k := planKey{kind: memoForward, scheme: plan.Scheme, parts: len(plan.Parts)}
	out := runKeyedPlan(cfg, opts, p, k, multi, false, func() *schedule.Program {
		return forwardProgram(plan.Parts, multi)
	})
	out.Dims, out.Parts = p.Dims, len(plan.Parts)
	return out
}

// runKeyedPlan runs the program build returns for a plan of p. Untraced
// runs of layers within panelOpBudget go through the trace keyed by k,
// completed with the normalized parent, and runs traced into a summary
// sink through the summary memo under the same key; the rest pass no
// key, so they build and execute the program one-shot. Single-core
// programs run through sim.RunFamily and record the lookup in the
// whole-layer or partitioned census; multi-core ones run through
// sim.RunMultiKeyed and record in neither.
func runKeyedPlan(cfg config.NPU, opts sim.Options, p schedule.TileParams, k planKey, multi, shared bool, build func() *schedule.Program) LayerOutcome {
	k.p = p
	k.p.Layer, k.p.Part = 0, 0
	if useSummaryMemo(opts, k) {
		return memoSummaryRun(cfg, opts, k, multi, shared, build)
	}
	var key any
	if useTraceCache(opts, p) {
		if !multi {
			census := progCensus
			if k.scheme != NoPartition {
				census = partCensus
			}
			census.Lookup(k)
		}
		key = k
	}
	return runProgram(cfg, opts, key, multi, shared, build)
}

// runProgram runs the program build returns under key (nil: one-shot),
// on one core through sim.RunFamily or, when multi, through
// sim.RunMultiKeyed.
func runProgram(cfg config.NPU, opts sim.Options, key any, multi, shared bool, build func() *schedule.Program) LayerOutcome {
	if multi {
		return outcomeFromMulti(sim.RunMultiKeyed(cfg, opts, key, shared, build))
	}
	return outcomeFromResult(sim.RunFamily(cfg, opts, key, 1, func(int) *schedule.Program {
		return build()
	}).Result(0))
}

// tunedChoices resolves the tuned choices that shape p's backward stream
// under pol, the same ones the emitters make: the access order, and
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
			endKernel(prog, "baseline-dX", 0, 0)
			return
		}
		prog.Order = g.appendDW(prog.Order, dwCandidate(i-2))
		endKernel(prog, "baseline-dW", 0, 0)
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
		endKernel(prog, "interleave", 0, 0)
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
		appendRearranged(prog, g, single, np, 0, o, ordersVal{})
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
