package core

import (
	"reflect"
	"testing"

	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/workload"
)

// TestProgramCacheBitEquivalent proves the shared-program path changes no
// results: for every policy, a backward pass through the compiled-program
// cache must equal the refmodel oracle's replay of the same policy's
// kernels, tuned and composed by the oracle itself (which never touches
// the cache), and the forward pass likewise.
func TestProgramCacheBitEquivalent(t *testing.T) {
	ResetCaches()
	cfg := config.SmallNPU()
	p := LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 7, cfg)
	if !useProgramCache(sim.Options{}, p) {
		t.Fatalf("%v does not take the program-cache path", p.Dims)
	}

	o := newOracle()
	for _, pol := range Policies() {
		for _, skipDX := range []bool{false, true} {
			ResetCaches()
			got := RunBackward(cfg, sim.Options{}, p, pol, skipDX)
			if want := o.backward(cfg, p, pol, skipDX); got != want {
				t.Errorf("policy %v skipDX=%v: program-cache path diverged from the oracle:\n got %+v\nwant %+v",
					pol, skipDX, got, want)
			}
		}
	}

	ResetCaches()
	gotF := RunForward(cfg, sim.Options{}, p)
	wantF := outcomeFromCounts(oracleCounts(cfg, schedule.Forward(p)))
	wantF.Dims, wantF.Parts = p.Dims, 1
	if gotF != wantF {
		t.Errorf("forward: program-cache path diverged from the oracle:\n got %+v\nwant %+v", gotF, wantF)
	}
}

// TestProgramCacheSharesAcrossTimings proves the point of the cache: two
// configurations that differ only in DRAM bandwidth (a timing fact the
// emitted tile streams cannot see) share one compiled program per layer
// point, while the layer memo — keyed on the full hardware fingerprint —
// must treat them as distinct.
func TestProgramCacheSharesAcrossTimings(t *testing.T) {
	ResetCaches()
	fast := config.SmallNPU()
	slow := fast.WithBandwidth(fast.DRAMBandwidth / 2)
	p := LayerParams(tensor.Dims{M: 128, K: 256, N: 128}, 3, fast)

	opts := sim.Options{}
	a := RunBackward(fast, opts, p, PolBaseline, false)
	entries := ProgramCacheLen()
	if entries == 0 {
		t.Fatal("compiled-program cache stayed empty on the compiled path")
	}
	b := RunBackward(slow, opts, p, PolBaseline, false)
	if ProgramCacheLen() != entries {
		t.Errorf("bandwidth-only change grew the program cache %d -> %d; the program should be shared",
			entries, ProgramCacheLen())
	}
	if a.Cycles == b.Cycles {
		t.Error("halving bandwidth left cycles unchanged; shared program must still be re-timed per config")
	}
	if a.Traffic != b.Traffic {
		t.Errorf("traffic changed with bandwidth: %+v vs %+v", a.Traffic, b.Traffic)
	}

	// Different layer ids of the same shape share the program too.
	p9 := p
	p9.Layer = 9
	_ = RunBackward(fast, opts, p9, PolBaseline, false)
	if ProgramCacheLen() != entries {
		t.Errorf("layer-id change grew the program cache %d -> %d; ids are normalized out of the key",
			entries, ProgramCacheLen())
	}

	ResetCaches()
	if ProgramCacheLen() != 0 {
		t.Errorf("ResetCaches left %d compiled programs cached", ProgramCacheLen())
	}
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
		for _, sub := range PartitionLayer(lp.Params, WeightSharing, cfg.Cores).Parts {
			oLo, vLo := tunedChoices(lo, sub, PolInterleave, lp.Layer.SkipDX)
			oHi, vHi := tunedChoices(hi, sub, PolInterleave, lp.Layer.SkipDX)
			flips = flips || (oLo == oHi && vLo != vHi)
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
	prev := sim.SetResidencyCacheCap(0)
	defer func() {
		sim.SetResidencyCacheCap(prev)
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
