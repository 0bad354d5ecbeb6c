package sim

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/tensor"
)

// runPhases runs phases of per-core op streams once through RunMultiKeyed,
// without a key.
func runPhases(cfg config.NPU, opts Options, phases [][][]schedule.Op, shared bool) MultiResult {
	return RunMultiKeyed(cfg, opts, nil, shared, func() *schedule.Program { return CompilePhases(phases) })
}

func TestRunMultiMakespanIsMaxCore(t *testing.T) {
	cfg := testCfg().WithCores(2)
	p := params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	long := schedule.BaselineDX(p)
	short := long[:4]
	r := runPhases(cfg, Options{}, [][][]schedule.Op{{long, short}}, true)
	if len(r.PerCore) != 2 {
		t.Fatalf("per-core results: %d", len(r.PerCore))
	}
	want := max(r.PerCore[0].Cycles, r.PerCore[1].Cycles)
	if r.Cycles != want {
		t.Fatalf("makespan %d, want %d", r.Cycles, want)
	}
}

func TestSharedSPMDeduplicatesSharedTensor(t *testing.T) {
	cfg := testCfg().WithCores(2)
	// Two cores read the SAME W tiles (weight-sharing): with shared
	// placement W is fetched once; with private placement twice.
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	stream := schedule.BaselineDX(p) // reads dY + W
	shared := runPhases(cfg, Options{}, [][][]schedule.Op{{stream, stream}}, true)
	private := runPhases(cfg, Options{}, [][][]schedule.Op{{stream, stream}}, false)

	if shared.Traffic.Read[dram.ClassW] != 8*8*4 {
		t.Fatalf("shared W reads = %d, want one copy", shared.Traffic.Read[dram.ClassW])
	}
	if private.Traffic.Read[dram.ClassW] != 2*8*8*4 {
		t.Fatalf("private W reads = %d, want two copies", private.Traffic.Read[dram.ClassW])
	}
	if shared.SharedHits == 0 {
		t.Fatal("shared run recorded no cross-core hits")
	}
	if private.SharedHits != 0 {
		t.Fatal("private run must not record cross-core hits")
	}
}

func TestPhasesFlushSharedBuffer(t *testing.T) {
	cfg := testCfg().WithCores(1)
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	dx := schedule.BaselineDX(p)

	onePhase := runPhases(cfg, Options{}, [][][]schedule.Op{{dx}, {dx}}, true)
	// Second phase reloads everything after the flush: total reads double.
	single := runPhases(cfg, Options{}, [][][]schedule.Op{{dx}}, true)
	if onePhase.Traffic.TotalRead() != 2*single.Traffic.TotalRead() {
		t.Fatalf("phased reads = %d, want %d", onePhase.Traffic.TotalRead(), 2*single.Traffic.TotalRead())
	}
}

func TestMultiMatchesSingleForOneCore(t *testing.T) {
	cfg := testCfg()
	p := params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	ops := schedule.BaselineBackward(p).Ops
	single := RunSchedules(cfg, Options{}, schedule.Schedule{Ops: ops})
	multi := runPhases(cfg, Options{}, [][][]schedule.Op{{ops}}, true)
	if single.Cycles != multi.Cycles {
		t.Fatalf("single %d vs multi-1 %d cycles", single.Cycles, multi.Cycles)
	}
	if single.Traffic != multi.Traffic {
		t.Fatalf("traffic differs: %+v vs %+v", single.Traffic, multi.Traffic)
	}
}

func TestTooManyStreamsPanics(t *testing.T) {
	cfg := testCfg() // 1 core
	p := params(tensor.Dims{M: 4, K: 4, N: 4}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	ops := schedule.BaselineDX(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for more streams than cores")
		}
	}()
	runPhases(cfg, Options{}, [][][]schedule.Op{{ops, ops}}, true)
}

func TestEmptyPhasesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero phases")
		}
	}()
	runPhases(testCfg(), Options{}, nil, true)
}

func TestMultiDeterminism(t *testing.T) {
	cfg := testCfg().WithCores(4)
	p := params(tensor.Dims{M: 32, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	ops := schedule.BaselineBackward(p).Ops
	streams := [][]schedule.Op{ops[:30], ops[30:60], ops[60:90], ops[90:]}
	a := runPhases(cfg, Options{}, [][][]schedule.Op{streams}, true)
	b := runPhases(cfg, Options{}, [][][]schedule.Op{streams}, true)
	if a.Cycles != b.Cycles || a.Traffic != b.Traffic || a.SharedHits != b.SharedHits {
		t.Fatal("multi-core simulation is not deterministic")
	}
}
