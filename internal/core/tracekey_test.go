package core

import (
	"fmt"
	"reflect"
	"testing"

	"igosim/internal/config"
	"igosim/internal/metrics"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/workload"
)

// TestProgramCacheBitEquivalent proves the keyed-trace path changes no
// results: for every policy, a backward pass through the trace cache must
// equal the refmodel oracle's replay of the same policy's kernels, tuned
// and composed by the oracle itself (which never touches the cache), and
// the forward pass likewise.
func TestProgramCacheBitEquivalent(t *testing.T) {
	ResetCaches()
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 7, cfg)
	if !useTraceCache(sim.Options{}, p) {
		t.Fatalf("%v does not take the trace-cache path", p.Dims)
	}

	o := newOracle()
	for _, pol := range Policies() {
		for _, skipDX := range []bool{false, true} {
			ResetCaches()
			got := RunBackward(cfg, sim.Options{}, p, pol, skipDX)
			if want := o.backward(cfg, p, pol, skipDX); got != want {
				t.Errorf("policy %v skipDX=%v: trace-cache path diverged from the oracle:\n got %+v\nwant %+v",
					pol, skipDX, got, want)
			}
		}
	}

	ResetCaches()
	gotF := RunForward(cfg, sim.Options{}, p)
	wantF := outcomeFromCounts(oracleCounts(cfg, schedule.Forward(p)))
	wantF.Dims, wantF.Parts = p.Dims, 1
	if gotF != wantF {
		t.Errorf("forward: trace-cache path diverged from the oracle:\n got %+v\nwant %+v", gotF, wantF)
	}
}

// TestRunBackwardMultiMatchesOracle holds the programs runBackwardMulti
// builds to the refmodel oracle at two and four cores: for every policy
// and dW-only flag, RunBackwardMulti must equal the oracle's mirror
// (backwardMulti), which emits each part's kernels with the Op emitters
// from its own tuning, replays them phase by phase through
// refmodel.ReplayMulti and adds plan.ReduceResults. That covers the
// weight-sharing data-parallel plans on private buffers (the baseline's
// two phases, interleave, rearrange and dW-only layers) and the partition
// policy's search; every scheme of that search on the shared scratchpad
// is also compared on its own (RunPartitionedScheme).
func TestRunBackwardMultiMatchesOracle(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	var sharedHits int64
	var majors int
	for _, cores := range []int{2, 4} {
		cfg := config.SmallNPU().WithCores(cores)
		o := newOracle()
		for li, d := range []tensor.Dims{{M: 96, K: 384, N: 160}, {M: 4096, K: 64, N: 64}, {M: 64, K: 64, N: 4096}} {
			p := LayerParams(d, uint16(li+1), cfg)
			for _, pol := range Policies() {
				for _, skipDX := range []bool{false, true} {
					got := RunBackwardMulti(cfg, sim.Options{}, p, pol, skipDX)
					if want := o.backwardMulti(cfg, p, pol, skipDX); got != want {
						t.Errorf("%d cores %v %v skipDX=%v: diverged from the oracle:\n got %+v\nwant %+v",
							cores, d, pol, skipDX, got, want)
					}
					if pol == PolRearrange && !skipDX && got.Order != OnlyInterleave {
						majors++
					}
				}
			}
			for _, scheme := range Schemes() {
				got := RunPartitionedScheme(cfg, sim.Options{}, p, scheme, cores)
				want := o.multiPlan(cfg, p, PartitionLayer(p, scheme, cores), PolRearrange, false, true)
				want.Policy = PolPartition
				if got != want {
					t.Errorf("%d cores %v %v: diverged from the oracle:\n got %+v\nwant %+v", cores, d, scheme, got, want)
				}
				sharedHits += got.SharedHits
			}
		}
	}
	if sharedHits == 0 || majors == 0 {
		t.Fatalf("%d shared hits, %d rearranged layers on a major order: the comparison must cover both", sharedHits, majors)
	}
}

// TestDWOnlyPoliciesShareOneTrace runs a single-core dW-only layer
// through RunBackward under every policy on a cold cache. Every policy
// runs the same kernel, the tuned dW stream, and a plan is named by the
// kernels it runs, so the four runs count one plan key, not one per
// policy. Once the tuning has resolved its own family, every run is
// composed from that family's dW member, the one trace they share: they
// resolve no trace of their own and run nothing on the engine. Their
// outcomes equal the oracle's and differ only in the policy they report.
func TestDWOnlyPoliciesShareOneTrace(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 7, cfg)
	if !useTraceCache(sim.Options{}, p) {
		t.Fatalf("%v does not take the trace-cache path", p.Dims)
	}
	baselineChoices(cfg, p)
	before := sim.ResolvedCacheStats().Entries
	if before == 0 {
		t.Fatal("the tuning resolved no family trace")
	}
	passes := metrics.Value("sim_passes_total")
	want := newOracle().backward(cfg, p, PolBaseline, true)
	for _, pol := range Policies() {
		got := RunBackward(cfg, sim.Options{}, p, pol, true)
		if got.Policy != pol {
			t.Errorf("policy %v reported policy %v", pol, got.Policy)
		}
		got.Policy = want.Policy
		if got != want {
			t.Errorf("policy %v: %+v, want the oracle's %+v", pol, got, want)
		}
	}
	if got := sim.ResolvedCacheStats().Entries - before; got != 0 {
		t.Errorf("a dW-only layer under %d policies resolved %d traces beyond its tuning's, want 0", len(Policies()), got)
	}
	if got := metrics.Value("sim_passes_total") - passes; got != 0 {
		t.Errorf("a dW-only layer under %d policies ran %d engine passes, want 0", len(Policies()), got)
	}
	if got := progCensus.Len(); got != 1 {
		t.Errorf("a dW-only layer under %d policies counted %d plan keys, want 1", len(Policies()), got)
	}
}

// TestProgramCacheSharesAcrossTimings proves the point of the keys: two
// configurations that differ only in DRAM bandwidth (a timing fact the
// emitted tile streams cannot see) share one layer-program key and the
// resolved traces of the tuner families its plan is composed from, while
// the layer memo — keyed on the full hardware fingerprint — must treat
// them as distinct. The slower configuration retunes and composes its
// plan by replaying those traces alone: it resolves nothing.
func TestProgramCacheSharesAcrossTimings(t *testing.T) {
	ResetCaches()
	fast := config.SmallNPU()
	slow := fast.WithBandwidth(fast.DRAMBandwidth / 2)
	p := LayerParams(tensor.Dims{M: 128, K: 256, N: 128}, 3, fast)

	census := func() [3]int64 {
		return [3]int64{int64(progCensus.Len()), sim.ResolvedCacheStats().Entries, sim.ResolvedPhaseStats().Resolutions}
	}
	opts := sim.Options{}
	a := RunBackward(fast, opts, p, PolBaseline, false)
	entries := census()
	if entries[0] != 1 || entries[1] == 0 || entries[2] == 0 {
		t.Fatalf("the keyed path left census (program keys, traces, resolutions) %v, want one program key and some traces", entries)
	}
	replays := sim.ResolvedPhaseStats().Replays
	b := RunBackward(slow, opts, p, PolBaseline, false)
	if got := census(); got != entries {
		t.Errorf("bandwidth-only change grew the census (program keys, traces, resolutions) %v -> %v; the traces should be shared",
			entries, got)
	}
	if sim.ResolvedPhaseStats().Replays == replays {
		t.Error("the slower configuration replayed no trace")
	}
	if a.Cycles == b.Cycles {
		t.Error("halving bandwidth left cycles unchanged; a shared trace must still be re-timed per config")
	}
	if a.Traffic != b.Traffic {
		t.Errorf("traffic changed with bandwidth: %+v vs %+v", a.Traffic, b.Traffic)
	}
	o := newOracle()
	for _, c := range []struct {
		cfg config.NPU
		got LayerOutcome
	}{{fast, a}, {slow, b}} {
		if want := o.backward(c.cfg, p, PolBaseline, false); c.got != want {
			t.Errorf("%.0f GB/s: %+v, want the oracle's %+v", c.cfg.DRAMBandwidth/1e9, c.got, want)
		}
	}

	// Different layer ids of the same shape share the key too.
	p9 := p
	p9.Layer = 9
	_ = RunBackward(fast, opts, p9, PolBaseline, false)
	if got := census(); got != entries {
		t.Errorf("layer-id change grew the census (program keys, traces, resolutions) %v -> %v; ids are normalized out of the key",
			entries, got)
	}

	ResetCaches()
	if got := census(); got != [3]int64{} {
		t.Errorf("ResetCaches left a census (program keys, traces, resolutions) of %v", got)
	}
}

// TestSingleCoreTraceCacheMatchesEngine is the single-core twin of
// TestMultiCoreTraceCacheMatchesEngine: a bandwidth sweep of BERT-tiny on
// the small NPU at two SPM sizes, under every policy, run twice from cold
// caches — through the keyed trace families and with the trace cache
// disabled — must produce identical ModelRuns. Every single-core keyed
// path runs: layer programs (forward, backward, dW-only), partitioned
// plans, and the baseline, fusion and chunked-major candidate families.
// At 512 KiB the joint tuner picks a different dW loop order for the FFN
// down-projections between 12 and 16 GB/s while their access order stays
// put, so a layer-program key without the tuned choices would replay a
// stale stream; the two SPM sizes share every shape, so a key without
// the SPM size would replay the other size's trace.
func TestSingleCoreTraceCacheMatchesEngine(t *testing.T) {
	base := config.SmallNPU()
	m := workload.BERTTiny()
	spms := []int64{512 << 10, 1 << 20}
	bws := []float64{12e9, 16e9, 32e9, 48e9}

	lo, hi := base, base
	lo.SPMBytes, hi.SPMBytes = spms[0], spms[0]
	lo, hi = lo.WithBandwidth(bws[0]), hi.WithBandwidth(bws[1])
	flips := false
	for _, lp := range PlanModel(lo, m) {
		ps := []schedule.TileParams{lp.Params}
		kLo := tunedChoices(lo, ps, PolInterleave, lp.Layer.SkipDX)[0]
		kHi := tunedChoices(hi, ps, PolInterleave, lp.Layer.SkipDX)[0]
		flips = flips || (kernelOrders[kLo[0].kind] == kernelOrders[kHi[0].kind] && kLo != kHi)
	}
	if !flips {
		t.Fatal("no layer's tuned choice flips between 12 and 16 GB/s: the sweep cannot tell a key without choices")
	}

	sweep := func() []ModelRun {
		ResetCaches()
		var runs []ModelRun
		for _, spm := range spms {
			for _, bw := range bws {
				c := base.WithBandwidth(bw)
				c.SPMBytes = spm
				for _, pol := range Policies() {
					runs = append(runs, RunTraining(c, sim.Options{}, m, pol))
				}
			}
		}
		return runs
	}
	cached := sweep()
	if sim.ResolvedPhaseStats().Replays == 0 {
		t.Fatal("the cached sweep replayed nothing")
	}
	prev := sim.SetResidencyCacheBytes(0)
	defer func() {
		sim.SetResidencyCacheBytes(prev)
		ResetCaches()
	}()
	engine := sweep()
	for i := range cached {
		if !reflect.DeepEqual(cached[i], engine[i]) {
			t.Errorf("point %d (%v): trace cache diverged from the engine: %s",
				i, Policies()[i%len(Policies())], firstLayerDiff(cached[i], engine[i]))
		}
	}
}

// firstLayerDiff describes the first layer outcome where got and want
// differ, forward pass first.
func firstLayerDiff(got, want ModelRun) string {
	for _, pass := range []struct {
		name      string
		got, want []LayerOutcome
	}{{"fwd", got.Fwd, want.Fwd}, {"bwd", got.Bwd, want.Bwd}} {
		for j := range min(len(pass.got), len(pass.want)) {
			if pass.got[j] != pass.want[j] {
				return fmt.Sprintf("%s layer %d:\n got %+v\nwant %+v", pass.name, j, pass.got[j], pass.want[j])
			}
		}
		if len(pass.got) != len(pass.want) {
			return fmt.Sprintf("%s: %d layers, want %d", pass.name, len(pass.got), len(pass.want))
		}
	}
	return fmt.Sprintf("\n got %+v\nwant %+v", got, want)
}

// TestMultiCoreTraceCacheMatchesEngine runs a two-core bandwidth sweep of
// BERT-tiny under every policy twice from cold caches, first through the
// resolved-trace cache and then with it disabled, and requires identical
// ModelRuns, and identical outcomes for every layer's three partition
// schemes (RunPartitionedScheme), including those PolPartition's search
// does not pick. The first layer is dW-only and every training step runs
// the forward pass, so all three multi-core entry points are covered.
// Between 24 and 32 GB/s the joint tuner picks a different dW loop order
// for one part of the FFN down-projections while the part's access order
// stays put, and between 48 and 64 GB/s one dY-sharing part of the
// attention projections switches from the dXmajor to the dWmajor order,
// so a trace key that left out either choice would replay a stale stream.
func TestMultiCoreTraceCacheMatchesEngine(t *testing.T) {
	cfg := config.SmallNPU().WithCores(2)
	cfg.SPMBytes = 512 << 10
	m := workload.BERTTiny()
	lo, hi := cfg.WithBandwidth(24e9), cfg.WithBandwidth(32e9)
	flips := false
	for _, lp := range PlanModel(cfg, m) {
		parts := PartitionLayer(lp.Params, WeightSharing, cfg.Cores).Parts
		kLo := tunedChoices(lo, parts, PolInterleave, lp.Layer.SkipDX)
		kHi := tunedChoices(hi, parts, PolInterleave, lp.Layer.SkipDX)
		for i := range parts {
			flips = flips || (kernelOrders[kLo[i][0].kind] == kernelOrders[kHi[i][0].kind] && kLo[i] != kHi[i])
		}
	}
	if !flips {
		t.Fatal("no part's tuned choice flips between 24 and 32 GB/s: the sweep cannot tell a key without choices")
	}

	type point struct {
		run     ModelRun
		schemes []LayerOutcome
	}
	sweep := func() []point {
		ResetCaches()
		var pts []point
		for _, bw := range []float64{24e9, 32e9, 48e9, 64e9} {
			c := cfg.WithBandwidth(bw)
			for _, pol := range Policies() {
				pts = append(pts, point{run: RunTraining(c, sim.Options{}, m, pol)})
			}
			last := &pts[len(pts)-1]
			for _, lp := range PlanModel(c, m) {
				for _, s := range Schemes() {
					last.schemes = append(last.schemes, RunPartitionedScheme(c, sim.Options{}, lp.Params, s, c.Cores))
				}
			}
		}
		return pts
	}
	cached := sweep()
	if sim.ResolvedPhaseStats().Replays == 0 {
		t.Fatal("the cached sweep replayed nothing")
	}
	prev := sim.SetResidencyCacheBytes(0)
	defer func() {
		sim.SetResidencyCacheBytes(prev)
		ResetCaches()
	}()
	engine := sweep()
	for i := range cached {
		if !reflect.DeepEqual(cached[i], engine[i]) {
			t.Errorf("point %d (bandwidth %d, %v): trace cache diverged from the engine:\n got %+v\nwant %+v",
				i, i/len(Policies()), Policies()[i%len(Policies())], cached[i], engine[i])
		}
	}
}
