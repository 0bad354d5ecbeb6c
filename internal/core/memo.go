package core

import (
	"igosim/internal/config"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/stats"
)

// Memo execution counters. Wall domain, not cycle: under a miss race two
// workers may both compute the same key (GetOrCompute documents this), and
// tuning caches can re-enter memoLayer from a racing compute, so the
// executed/served split varies legitimately with -j. The deterministic view
// of the same cache lives in its stats entry count (manifest hit rate).
var (
	mLayerSims = metrics.NewCounter("core_layer_sims_total",
		"layer simulations actually executed (memo misses)", metrics.Wall)
	mLayerMemoHits = metrics.NewCounter("core_layer_memo_hits_total",
		"layer simulations served from the memo", metrics.Wall)
)

// Layer-level memoization.
//
// Every per-layer simulation is a pure function of (NPU fingerprint, tile
// parameters, policy, engine options): the engine starts cold, runs one
// layer, and its cycle/traffic outcome is invariant under renaming of
// tensor-instance ids. Models repeat layer shapes heavily (ResNet blocks,
// BERT encoder layers), and the experiment grids re-simulate the same
// (config, layer, policy) points across figures, so memoizing at the layer
// level removes most of the simulation work — and the saving compounds
// with the runner's parallelism.
//
// The key deliberately zeroes TileParams.Layer and TileParams.Part: those
// fields only bias tensor-instance ids, and a bijective renaming of tile
// keys cannot change LRU residency behaviour, spills, or timing. Two
// layers of different networks with identical GEMM shape, tiling and
// XFactor therefore share one simulation.

// memoKind discriminates the simulation entry points sharing the layer
// memo (they emit different schedules for the same tile parameters).
type memoKind uint8

const (
	memoForward memoKind = iota
	memoBackward
	memoSelectorBwd     // order-selector study: RearrangedWithOrder(cfg, p, o)
	memoPartitionScheme // RunPartitionedScheme: one scheme, fixed parts
)

// layerKey identifies one layer simulation up to tensor renaming.
type layerKey struct {
	fp     config.Fingerprint
	p      schedule.TileParams
	kind   memoKind
	pol    Policy
	order  Order
	scheme Scheme
	parts  int
	skipDX bool
	opts   sim.Options
}

var layerMemo = runner.NewCache[layerKey, LayerOutcome]("core/layer-sim")

func layerKeyFor(cfg config.NPU, p schedule.TileParams, kind memoKind, opts sim.Options) layerKey {
	p.Layer, p.Part = 0, 0
	// Tracing never changes simulation outcomes, so traced and untraced runs
	// share cache entries; keeping the sink or label in the key would both
	// fragment the cache and defeat memoization whenever tracing is on.
	opts.Trace, opts.TraceLabel = nil, ""
	return layerKey{fp: cfg.Fingerprint(), p: p, kind: kind, opts: opts}
}

// memoLayer wraps the layer-memo lookup for traced runs: a served result has
// no engine spans in the trace (the simulation never ran), so the sink gets
// a memo-hit instant naming what was skipped instead.
func memoLayer(key layerKey, opts sim.Options, compute func() LayerOutcome) LayerOutcome {
	computed := false
	out := layerMemo.GetOrCompute(key, func() LayerOutcome {
		computed = true
		return compute()
	})
	if computed {
		mLayerSims.Inc()
	} else {
		mLayerMemoHits.Inc()
		if opts.Trace != nil {
			opts.Trace.MemoHit("core/layer-sim", opts.TraceLabel)
		}
	}
	return out
}

// LayerMemoStats returns the layer memo cache's hit/miss snapshot.
func LayerMemoStats() stats.CacheSnapshot { return layerMemo.Stats() }

// ResetCaches drops the layer and summary memos, every tuning cache and
// census, and sim's resolved traces, returning the simulator to a cold
// state, and zeroes the hit/miss counters of every cache registered with
// the stats registry (serve's result cache included). Benchmarks and
// determinism tests use it to measure uncached behaviour; results are
// unaffected (cached and recomputed values are identical).
func ResetCaches() {
	layerMemo.Reset()
	summaryMemo.Reset()
	ordersCache.Reset()
	ilvCache.Reset()
	reCache.Reset()
	progCensus.Reset()
	partCensus.Reset()
	for _, c := range panelCensus {
		c.Reset()
	}
	sim.ResetResolvedCache()
	stats.ResetAllCacheCounters()
}
