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
// partitioned plan or a multi-core plan — is named by one planKey and run
// by runPlan; runForwardPlan is the forward twin. An untraced, non-free-dY
// single-core plan is composed from its tuners' runs of its kernels
// (compose.go), so it lowers and simulates nothing and only counts its
// key in its census. Every other plan — traced, free-dY or multi-core — is
// one program (planProgram) run through one keyed path (runKeyedPlan).
// A plan is named by what it runs,
// its parts' kernels, not by the policy that chose them: tunedChoices
// alone maps a policy to kernels, so policies that run the same kernels
// (every policy on a dW-only layer, interleaving and a rearrangement that
// keeps the traditional orders) share one key and one trace.
//
// Soundness: the tuned candidates ARE bandwidth-dependent (the tuner
// simulates to pick them), so they are resolved first — through their own
// fingerprint-keyed caches — and included in the key as the kernels'
// recipes. Two configurations that tune to different candidates get
// different keys; two that tune alike share one. Keys normalize the
// parent's tile ids (Layer/Part zeroed) exactly as the layer memo does: a
// bijective renaming of tile keys cannot change residency behaviour, so
// the shared trace's results are identical to a per-layer simulation.
// Traced runs bypass the keys because a resolved trace keeps per-op
// transfer totals, not the event stream and reuse distances a trace sink
// needs: only the engine can serve them. Runs into a summary sink, which
// keeps only folded metrics, have their own memo keyed by the same plan
// key (summarymemo.go).
//
// Single-core plans keep their old cache names in stats.CacheReport as
// censuses of lookups (runner.Census): Entries counts the distinct keys,
// at first lookup, so manifests read the same numbers at any -j.

// planKey identifies one plan's program up to tensor renaming and hardware
// timing: the parent shape, the plan's scheme and part count — which
// together fix the part shapes — and each part's kernels. Forward keys
// carry no SPM, element size or kernels: the forward stream depends on
// the tile parameters alone. sim completes the key with the residency
// capacity, core count, placement and free-dY option.
type planKey struct {
	p       schedule.TileParams // parent, Layer/Part zeroed
	spm     int64               // cfg.SPMBytes: sizes the major orders' chunks
	elem    int                 // cfg.ElemBytes: sizes every tile transfer
	parts   int
	kind    memoKind
	scheme  Scheme
	kernels [schedule.MaxPartitions]partKernels
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

// runPlan simulates the backward pass of plan, a partitioning of p, part
// i running kernels[i]: on one core, part after part with the scratchpad
// flushed between kernels, or when multi one part per core, shared
// placing every part's tiles in one scratchpad. An untraced single-core
// plan without free dY is composed from its tuners' runs (composes); the
// rest run their program. The outcome adds the plan's reductions and
// reports the last part's access order (identical across equal splits).
func runPlan(cfg config.NPU, opts sim.Options, p schedule.TileParams, plan Plan, kernels []partKernels, multi, shared bool) LayerOutcome {
	n := len(plan.Parts)
	k := planKey{spm: cfg.SPMBytes, elem: cfg.ElemBytes, parts: n, kind: memoBackward, scheme: plan.Scheme}
	copy(k.kernels[:], kernels)
	var out LayerOutcome
	if composes(opts, multi) {
		if useTraceCache(opts, p) {
			countPlan(k.normalized(p))
		}
		out = outcomeFromResult(composePlan(cfg, plan.Parts, k.kernels[:n]))
	} else {
		out = runKeyedPlan(cfg, opts, p, k, multi, shared, func() *schedule.Program {
			return planProgram(plan.Parts, k.kernels[:n], multi)
		})
	}
	out.addReductions(plan.ReduceResults(cfg))
	out.Dims, out.Order, out.Scheme, out.Parts = p.Dims, kernelOrders[k.kernels[n-1][0].kind], plan.Scheme, n
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
	k = k.normalized(p)
	if useSummaryMemo(opts, k) {
		return memoSummaryRun(cfg, opts, k, multi, shared, build)
	}
	var key any
	if useTraceCache(opts, p) {
		if !multi {
			countPlan(k)
		}
		key = k
	}
	return runProgram(cfg, opts, key, multi, shared, build)
}

// normalized returns k completed with the parent p, its tile ids
// normalized.
func (k planKey) normalized(p schedule.TileParams) planKey {
	k.p = p
	k.p.Layer, k.p.Part = 0, 0
	return k
}

// countPlan records a lookup of the single-core plan k names in the
// whole-layer census or the partitioned one.
func countPlan(k planKey) {
	if k.scheme == NoPartition {
		progCensus.Lookup(k)
	} else {
		partCensus.Lookup(k)
	}
}

// runProgram runs the program build returns under key (nil: one-shot),
// on one core through sim.RunFamily or, when multi, through
// sim.RunMultiKeyed, whose release of the program recycles its storage.
func runProgram(cfg config.NPU, opts sim.Options, key any, multi, shared bool, build func() *schedule.Program) LayerOutcome {
	if multi {
		return outcomeFromMulti(sim.RunMultiKeyed(cfg, opts, key, shared, build))
	}
	return outcomeFromResult(sim.RunFamily(cfg, opts, key, 1, func(int) *schedule.Program {
		return build()
	}).Result(0))
}

// tunedChoices maps the backward pass of parts under pol, dW-only when
// skipDX, to the kernels each part runs, with the tuned choices the
// emitters make: the baseline pair under PolBaseline; else one kernel —
// the dW stream alone when skipDX, the tuned fusion under PolInterleave,
// and from PolRearrange up the rearranged kernel of the simulated-best
// order.
func tunedChoices(cfg config.NPU, parts []schedule.TileParams, pol Policy, skipDX bool) []partKernels {
	kernels := make([]partKernels, len(parts))
	for i, p := range parts {
		switch {
		case skipDX:
			kernels[i] = partKernels{{kind: kDWOnly, dw: baselineChoices(cfg, p).dw}}
		case pol == PolBaseline:
			v := baselineChoices(cfg, p)
			kernels[i] = partKernels{{kind: kBaselineDX, dx: v.dx}, {kind: kBaselineDW, dw: v.dw}}
		case pol == PolInterleave:
			kernels[i] = partKernels{interleaveChoices(cfg, p)}
		default: // PolRearrange and above
			kernels[i] = partKernels{orderRecipe(cfg, p, BestOrderSimulated(cfg, p))}
		}
	}
	return kernels
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
// the candidates, in parallel, dropping each once resolved. Above
// panelOpBudget the family runs unkeyed on the one-shot engine, its
// members in parallel too, and keeps nothing.

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
	famBaseline family = iota // the distinct dX orders, then the distinct dW orders, in isolation
	famMerge                  // the distinct fusion combinations, mergeCandidates order
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

// tunerFamily runs one shape's candidate family under single, member i
// running kernels[i], keyed within panelOpBudget and one-shot above it,
// and records the lookup in its family census.
func tunerFamily(single config.NPU, np schedule.TileParams, fam family, kernels []recipe) sim.Family {
	if np.OpCount() <= panelOpBudget {
		panelCensus[fam].Lookup(panelKey{p: np, spm: single.SPMBytes, elem: single.ElemBytes, fam: fam})
	}
	return runFamily(single, np, fam, kernels)
}

// runFamily is tunerFamily's lookup without the census: the members share
// one op table (familyMembers), recycled at the end.
func runFamily(single config.NPU, np schedule.TileParams, fam family, kernels []recipe) sim.Family {
	var key any
	if np.OpCount() <= panelOpBudget {
		key = panelKey{p: np, spm: single.SPMBytes, elem: single.ElemBytes, fam: fam}
	}
	m := familyMembers(np, kernels)
	f := sim.RunFamily(single, sim.Options{}, key, len(kernels), m.build)
	m.release()
	return f
}

// members builds a tuner family's programs over np's shape code for
// sim.RunFamily, which runs the members in parallel and so may call build
// from several goroutines at once. The first build lowers the shape and
// builds the baseline streams the fusion members merge, so no member
// writes what another reads, while the others wait for it, lending their
// worker slots (runner.Once); each member then orders the shared op table
// into an order buffer of its own, drawn from orderBufs and handed back
// when RunFamily releases the member's program. A family's buffers thus
// number the members running at once, not the members.
type members struct {
	np      schedule.TileParams
	kernels []recipe
	lower   runner.Once
	sc      *shapeCode
}

// familyMembers returns the member builder of the family whose member i
// runs kernels[i] on np.
func familyMembers(np schedule.TileParams, kernels []recipe) *members {
	return &members{np: np, kernels: kernels}
}

// build returns member i's one-kernel program.
func (m *members) build(i int) *schedule.Program {
	m.lower.Do(func() {
		m.sc = lowerShapes(m.np)
		for _, r := range m.kernels {
			if r.kind == kInterleave {
				m.sc.streams(0, r)
			}
		}
	})
	prog := m.sc.program(len(m.sc.code))
	prog.Release = func() { orderBufs.Put(prog.Order[:0]) }
	m.sc.appendKernel(prog, 0, m.kernels[i], 0)
	return prog
}

// release hands the family's op table back to opTables. No program built
// may run afterwards.
func (m *members) release() {
	if m.sc != nil {
		recycle(m.sc.code)
	}
}

// baselineFamily lists the baseline tuner's isolated candidates: the dX
// orders dxs, then the dW orders dws. They are a shape's distinct orders
// (dxCandidates, dwCandidates), which the shape alone fixes, so the
// family key still names every member.
func baselineFamily(dxs []dxCandidate, dws []dwCandidate) []recipe {
	kernels := make([]recipe, 0, len(dxs)+len(dws))
	for _, c := range dxs {
		kernels = append(kernels, recipe{kind: kBaselineDX, dx: c})
	}
	for _, c := range dws {
		kernels = append(kernels, recipe{kind: kBaselineDW, dw: c})
	}
	return kernels
}

// majorFamily lists the two chunked-major rearranged candidates sized for
// single, dXmajor then dWmajor.
func majorFamily(single config.NPU, np schedule.TileParams) []recipe {
	return []recipe{orderRecipe(single, np, DXMajor), orderRecipe(single, np, DWMajor)}
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
