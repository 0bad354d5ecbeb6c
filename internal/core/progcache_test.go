package core

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
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
