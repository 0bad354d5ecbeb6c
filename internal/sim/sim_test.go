package sim

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/tensor"
)

// testCfg is a small, deterministic configuration: 4x4 PE array, 4 KiB SPM
// (2 KiB residency), 16 bytes/cycle, no burst latency.
func testCfg() config.NPU {
	return config.NPU{
		Name: "test", ArrayRows: 4, ArrayCols: 4, Cores: 1,
		SPMBytes: 4096, DRAMBandwidth: 16e9, DRAMLatency: 0,
		FrequencyHz: 1e9, ElemBytes: 4, Batch: 1,
	}
}

func params(d tensor.Dims, tl schedule.Tiling) schedule.TileParams {
	return schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}
}

func TestSequentialBaselineReadsDYTwice(t *testing.T) {
	p := params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	dxK := schedule.Schedule{Ops: schedule.BaselineDX(p)}
	dwK := schedule.Schedule{Ops: schedule.BaselineDW(p)}
	r := RunSchedules(testCfg(), Options{}, dxK, dwK)

	dyBytes := int64(16 * 16 * 4)
	if r.Traffic.Read[dram.ClassDY] != 2*dyBytes {
		t.Fatalf("baseline dY reads = %d, want %d (once per kernel)",
			r.Traffic.Read[dram.ClassDY], 2*dyBytes)
	}
}

func TestPairedInterleaveReadsDYOnce(t *testing.T) {
	// K is kept small so the carried dW partials fit in the scratchpad —
	// the regime where the paper's dXmajor order is profitable.
	p := params(tensor.Dims{M: 32, K: 8, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	r := RunSchedules(testCfg(), Options{}, schedule.Schedule{Ops: schedule.DXMajorOps(p, 1)})

	dyBytes := int64(32 * 16 * 4)
	if r.Traffic.Read[dram.ClassDY] != dyBytes {
		t.Fatalf("fused dY reads = %d, want %d (single pass)",
			r.Traffic.Read[dram.ClassDY], dyBytes)
	}
	// On a bandwidth-starved configuration (memory-bound, like the paper's
	// NPUs) the single dY pass must beat the flushed sequential baseline.
	starved := testCfg()
	starved.DRAMBandwidth = 2e9
	fused := RunSchedules(starved, Options{}, schedule.Schedule{Ops: schedule.DXMajorOps(p, 1)})
	base := RunSchedules(starved, Options{},
		schedule.Schedule{Ops: schedule.BaselineDX(p)},
		schedule.Schedule{Ops: schedule.BaselineDW(p)})
	if fused.Cycles >= base.Cycles {
		t.Fatalf("fused %d cycles not faster than baseline %d", fused.Cycles, base.Cycles)
	}
}

func TestFlushForcesRefetch(t *testing.T) {
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	dx := schedule.BaselineDX(p)
	reads := func(kernels ...schedule.Schedule) int64 {
		prog := CompileSchedules(kernels...)
		e := NewCompiledEngine(testCfg(), Options{})
		e.RunProgram(prog)
		return e.Result().Traffic.TotalRead()
	}
	once := reads(schedule.Schedule{Ops: dx})

	// Same kernel twice without a flush: the second pass hits.
	if got := reads(schedule.Schedule{Ops: append(append([]schedule.Op{}, dx...), dx...)}); got != once {
		t.Fatalf("warm rerun fetched %d extra bytes", got-once)
	}
	// With a kernel boundary (flush) in between, everything is refetched.
	if got := reads(schedule.Schedule{Ops: dx}, schedule.Schedule{Ops: dx}); got != 2*once {
		t.Fatalf("post-flush reads = %d, want %d", got, 2*once)
	}
}

func TestFreeDYOnDW(t *testing.T) {
	p := params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	dwK := schedule.Schedule{Ops: schedule.BaselineDW(p)}
	plain := RunSchedules(testCfg(), Options{}, dwK)
	free := RunSchedules(testCfg(), Options{FreeDYOnDW: true}, dwK)
	if free.Traffic.Read[dram.ClassDY] != 0 {
		t.Fatalf("free-dY run still read %d dY bytes", free.Traffic.Read[dram.ClassDY])
	}
	if free.Cycles >= plain.Cycles {
		t.Fatal("free dY reads should reduce cycles")
	}
	if free.Traffic.Read[dram.ClassX] != plain.Traffic.Read[dram.ClassX] {
		t.Fatal("free-dY option must not touch X traffic")
	}
}

func TestWritebackTraffic(t *testing.T) {
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	r := RunSchedules(testCfg(), Options{}, schedule.Schedule{Ops: schedule.BaselineDX(p)})
	if got := r.Traffic.Write[dram.ClassDX]; got != 8*8*4 {
		t.Fatalf("dX writeback = %d, want %d", got, 8*8*4)
	}
}

func TestSpillAccounting(t *testing.T) {
	// A dWmajor-style stream on a tiny SPM: dX partials (the whole M x K)
	// cannot stay resident, so spills must appear as acc traffic.
	cfg := testCfg()
	cfg.SPMBytes = 1024 // 512 B residency, tiles are 64 B
	d := tensor.Dims{M: 16, K: 16, N: 16}
	p := params(d, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	r := RunSchedules(cfg, Options{}, schedule.Schedule{Ops: schedule.DWMajorOps(p, 1)})
	if r.Spills == 0 {
		t.Fatal("expected partial-sum spills on a tiny SPM")
	}
	if r.Traffic.Write[dram.ClassAcc] == 0 || r.Traffic.Read[dram.ClassAcc] == 0 {
		t.Fatalf("spilled partials must produce acc traffic, got %+v", r.Traffic)
	}
}

func TestPipelineBounds(t *testing.T) {
	p := params(tensor.Dims{M: 32, K: 32, N: 32}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	r := RunSchedules(testCfg(), Options{}, schedule.BaselineBackward(p))
	if r.Cycles > r.ComputeCycles+r.MemCycles {
		t.Fatalf("makespan %d exceeds serial bound %d", r.Cycles, r.ComputeCycles+r.MemCycles)
	}
	if r.Cycles < r.ComputeCycles || r.Cycles < r.MemCycles {
		t.Fatalf("makespan %d below stage bounds (%d, %d)", r.Cycles, r.ComputeCycles, r.MemCycles)
	}
}

func TestBurstLatencyCharged(t *testing.T) {
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	fast := testCfg()
	slow := testCfg()
	slow.DRAMLatency = 50
	rf := RunSchedules(fast, Options{}, schedule.BaselineBackward(p))
	rs := RunSchedules(slow, Options{}, schedule.BaselineBackward(p))
	if rs.Cycles <= rf.Cycles {
		t.Fatal("burst latency should increase cycles")
	}
	if rs.Traffic.Total() != rf.Traffic.Total() {
		t.Fatal("burst latency must not change traffic")
	}
}

func TestEngineReset(t *testing.T) {
	p := params(tensor.Dims{M: 8, K: 8, N: 8}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	prog := CompileSchedules(schedule.Schedule{Ops: schedule.BaselineDX(p)})
	e := NewCompiledEngine(testCfg(), Options{})
	e.RunProgram(prog)
	e.Reset()
	r := e.Result()
	if r != (Result{}) {
		t.Fatalf("reset left state: %+v", r)
	}
	// The bound program survives Reset and re-executes from scratch.
	e.Execute()
	if r := e.Result(); r.Ops != int64(len(prog.Code)) || r.SPM.Hits+r.SPM.Misses == 0 {
		t.Fatalf("re-execution after reset: %+v", r)
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{Cycles: 10, ComputeCycles: 5, MemCycles: 7, Ops: 2, Spills: 1}
	a.Traffic.AddRead(dram.ClassX, 100)
	b := Result{Cycles: 20, ComputeCycles: 15, MemCycles: 17, Ops: 3}
	b.Traffic.AddWrite(dram.ClassDW, 50)
	a.Add(b)
	if a.Cycles != 30 || a.ComputeCycles != 20 || a.Ops != 5 || a.Spills != 1 {
		t.Fatalf("Add result %+v", a)
	}
	if a.Traffic.Total() != 150 {
		t.Fatalf("merged traffic %d", a.Traffic.Total())
	}
}

func TestReduceCost(t *testing.T) {
	cfg := testCfg()
	r := ReduceCost(cfg, 4, 1000, dram.ClassDW)
	if r.Traffic.Read[dram.ClassAcc] != 4000 {
		t.Fatalf("reduce reads = %d", r.Traffic.Read[dram.ClassAcc])
	}
	if r.Traffic.Write[dram.ClassDW] != 1000 {
		t.Fatalf("reduce writes = %d", r.Traffic.Write[dram.ClassDW])
	}
	if r.Cycles <= 0 {
		t.Fatal("reduce must cost cycles")
	}
	if got := ReduceCost(cfg, 1, 1000, dram.ClassDW); got.Cycles != 0 {
		t.Fatal("single-partition reduce must be free")
	}
}

func TestSeconds(t *testing.T) {
	r := Result{Cycles: 2e9}
	if got := r.Seconds(testCfg()); got != 2.0 {
		t.Fatalf("seconds = %g", got)
	}
}

func TestDeterminism(t *testing.T) {
	p := params(tensor.Dims{M: 24, K: 24, N: 24}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	a := RunSchedules(testCfg(), Options{}, schedule.BaselineBackward(p))
	b := RunSchedules(testCfg(), Options{}, schedule.BaselineBackward(p))
	if a != b {
		t.Fatal("simulation is not deterministic")
	}
}
