package core

import (
	"testing"

	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

func TestBaselineChoicesAreBest(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 96, K: 80, N: 48}, 1, cfg)
	dxK, dwK := TunedBaselineKernels(cfg, p)
	chosenDX := sim.RunSchedules(cfg, sim.Options{}, dxK).Cycles
	chosenDW := sim.RunSchedules(cfg, sim.Options{}, dwK).Cycles
	for _, o := range []schedule.DXLoopOrder{schedule.DXOrderMK, schedule.DXOrderKM} {
		c := sim.RunSchedules(cfg, sim.Options{}, schedule.Schedule{Ops: schedule.BaselineDXOrdered(p, o)}).Cycles
		if c < chosenDX {
			t.Fatalf("dX order %v (%d cycles) beats tuned choice (%d)", o, c, chosenDX)
		}
	}
	for _, o := range []schedule.DWLoopOrder{schedule.DWOrderKN, schedule.DWOrderNK} {
		c := sim.RunSchedules(cfg, sim.Options{}, schedule.Schedule{Ops: schedule.BaselineDWOrdered(p, o)}).Cycles
		if c < chosenDW {
			t.Fatalf("dW order %v (%d cycles) beats tuned choice (%d)", o, c, chosenDW)
		}
	}
}

func TestTunedBaselineDeterministicAndCached(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 64, K: 64, N: 64}, 1, cfg)
	dx1, dw1 := TunedBaselineKernels(cfg, p)
	dx2, dw2 := TunedBaselineKernels(cfg, p)
	if len(dx1.Ops) != len(dx2.Ops) || len(dw1.Ops) != len(dw2.Ops) {
		t.Fatal("tuned baseline not deterministic")
	}
	for i := range dx1.Ops {
		if dx1.Ops[i] != dx2.Ops[i] {
			t.Fatal("tuned dX kernel differs between calls")
		}
	}
}

func TestTunedInterleaveAlternatesKinds(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 64, K: 48, N: 48}, 1, cfg)
	s := TunedInterleave(cfg, p)
	var dx, dw int
	for _, op := range s.Ops {
		switch op.Kind {
		case schedule.KindDX:
			dx++
		case schedule.KindDW:
			dw++
		}
	}
	if dx != dw || dx == 0 {
		t.Fatalf("interleave has %d dX and %d dW ops", dx, dw)
	}
	// Fused streams must interleave: the first half of the stream cannot be
	// all dX ops (that would be the sequential baseline).
	half := s.Ops[:len(s.Ops)/2]
	onlyDX := true
	for _, op := range half {
		if op.Kind == schedule.KindDW {
			onlyDX = false
			break
		}
	}
	if onlyDX {
		t.Fatal("fused stream is not interleaved")
	}
}

func TestMergeStreamsBlocks(t *testing.T) {
	mk := func(kind schedule.Kind, n int) []schedule.Op {
		ops := make([]schedule.Op, n)
		for i := range ops {
			ops[i].Kind = kind
		}
		return ops
	}
	merged := mergeStreams(nil, mk(schedule.KindDX, 5), mk(schedule.KindDW, 5), 2)
	wantKinds := []schedule.Kind{
		schedule.KindDX, schedule.KindDX, schedule.KindDW, schedule.KindDW,
		schedule.KindDX, schedule.KindDX, schedule.KindDW, schedule.KindDW,
		schedule.KindDX, schedule.KindDW,
	}
	if len(merged) != len(wantKinds) {
		t.Fatalf("merged %d ops", len(merged))
	}
	for i, k := range wantKinds {
		if merged[i].Kind != k {
			t.Fatalf("op %d kind %v, want %v", i, merged[i].Kind, k)
		}
	}
	// Degenerate block clamps to 1.
	if got := mergeStreams(nil, mk(schedule.KindDX, 2), mk(schedule.KindDW, 2), 0); len(got) != 4 {
		t.Fatalf("block 0 merge lost ops: %d", len(got))
	}
}

func TestFusedMajorsVerifyWithConfigChunks(t *testing.T) {
	cfg := tinyCfg()
	for _, d := range []tensor.Dims{
		{M: 96, K: 48, N: 32},
		{M: 24, K: 200, N: 48},
	} {
		p := LayerParams(d, 1, cfg)
		for _, s := range []schedule.Schedule{FusedDXMajor(cfg, p), FusedDWMajor(cfg, p)} {
			if err := schedule.VerifyBackward(p, s.Ops, false); err != nil {
				t.Errorf("%v %s: %v", d, s.Name, err)
			}
			if err := CheckEquivalence(d, p.Tiling, s.Ops, 1e-8); err != nil {
				t.Errorf("%v %s: %v", d, s.Name, err)
			}
		}
	}
}

func TestBestOrderSimulatedIsBest(t *testing.T) {
	cfg := tinyCfg()
	p := LayerParams(tensor.Dims{M: 128, K: 32, N: 32}, 1, cfg)
	best := BestOrderSimulated(cfg, p)
	sched, _ := RearrangedWithOrder(cfg, p, best)
	bestCycles := sim.RunSchedules(cfg, sim.Options{}, sched).Cycles
	for _, o := range Orders() {
		s, _ := RearrangedWithOrder(cfg, p, o)
		if c := sim.RunSchedules(cfg, sim.Options{}, s).Cycles; c < bestCycles {
			t.Fatalf("order %v (%d cycles) beats reported best %v (%d)", o, c, best, bestCycles)
		}
	}
}
