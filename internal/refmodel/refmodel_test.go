package refmodel

import (
	"strings"
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

func testCfg(spmBytes int64) config.NPU {
	return config.NPU{
		Name: "ref-test", ArrayRows: 4, ArrayCols: 4, Cores: 1,
		SPMBytes: spmBytes, DRAMBandwidth: 16e9, DRAMLatency: 7,
		FrequencyHz: 1e9, ElemBytes: 4, Batch: 1,
	}
}

func params(d tensor.Dims, tl schedule.Tiling) schedule.TileParams {
	return schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}
}

// TestLRUSetBasics pins the slow residency set's semantics on a
// hand-computed sequence.
func TestLRUSetBasics(t *testing.T) {
	key := func(i int32) schedule.TileKey { return schedule.TileKey{Row: i} }
	l := newLRUSet(100)

	if hit, _ := l.touch(key(1)); hit {
		t.Fatal("empty set reported a hit")
	}
	if ev := l.insert(key(1), 40, 0); ev != nil {
		t.Fatalf("insert into empty set evicted %v", ev)
	}
	if ev := l.insert(key(2), 40, 1); ev != nil {
		t.Fatalf("fitting insert evicted %v", ev)
	}
	if hit, by := l.touch(key(1)); !hit || by != 0 {
		t.Fatalf("resident tile: hit %v placed by core %d, want hit by core 0", hit, by)
	}
	// Key 2 is now least recently used; a 40-byte insert must evict it only.
	ev := l.insert(key(3), 40, 0)
	if len(ev) != 1 || ev[0] != key(2) {
		t.Fatalf("evicted %v, want [key 2]", ev)
	}
	if l.used != 80 {
		t.Fatalf("used = %d, want 80", l.used)
	}
	// Oversized inserts drain the set oldest-first.
	ev = l.insert(key(4), 100, 0)
	if len(ev) != 2 || ev[0] != key(1) || ev[1] != key(3) {
		t.Fatalf("evicted %v, want [key 1, key 3]", ev)
	}
	if l.hits != 1 || l.misses != 1 || l.evictions != 3 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/3", l.hits, l.misses, l.evictions)
	}
	l.remove(key(4))
	if l.used != 0 || len(l.order) != 0 {
		t.Fatalf("remove left used=%d len=%d", l.used, len(l.order))
	}
}

// TestHandComputedTinyStream replays one op and checks every counter
// against a by-hand derivation, independent of both implementations.
func TestHandComputedTinyStream(t *testing.T) {
	p := params(tensor.Dims{M: 2, K: 2, N: 2}, schedule.Tiling{Tm: 2, Tk: 2, Tn: 2})
	op := p.DXOp(0, 0, 0, 1) // single-tile dX GEMM: OutFirst and OutLast
	cfg := testCfg(4096)
	c := ReplaySchedules(cfg, Options{}, schedule.Schedule{Ops: []schedule.Op{op}})

	// Accesses: alloc dX out (no traffic), load dY miss (16 B), load W miss
	// (16 B), drain dX (16 B write). Misses: 2, hits: 0, no evictions.
	if c.Misses != 2 || c.Hits != 0 || c.Evictions != 0 || c.Spills != 0 {
		t.Fatalf("hits/misses/evictions/spills = %d/%d/%d/%d", c.Hits, c.Misses, c.Evictions, c.Spills)
	}
	if c.Traffic.Read[dram.ClassDY] != 16 || c.Traffic.Read[dram.ClassW] != 16 {
		t.Fatalf("reads = %+v", c.Traffic.Read)
	}
	if c.Traffic.Write[dram.ClassDX] != 16 || c.Traffic.Total() != 48 {
		t.Fatalf("writes = %+v total %d", c.Traffic.Write, c.Traffic.Total())
	}
	// 48 bytes at 16 B/cycle = 3 cycles + 3 bursts x 7 latency = 24 mem
	// cycles; compute = 1 fold x tk(2) + (4+4-2) = 8 cycles.
	if c.MemCycles != 24 || c.ComputeCycles != 8 {
		t.Fatalf("mem/comp = %d/%d, want 24/8", c.MemCycles, c.ComputeCycles)
	}
	if c.Cycles != 32 || c.Ops != 1 {
		t.Fatalf("cycles/ops = %d/%d, want 32/1", c.Cycles, c.Ops)
	}
}

// TestAgreesWithEngine sweeps deterministic schedules — all access orders,
// chunked variants, roomy and pressure-tight scratchpads, the dY limit
// study, and multi-schedule kernel boundaries — and demands bit-exact
// agreement with the engine.
func TestAgreesWithEngine(t *testing.T) {
	dims := []tensor.Dims{
		{M: 2, K: 2, N: 2},
		{M: 13, K: 9, N: 7},
		{M: 5, K: 24, N: 3},
		{M: 31, K: 4, N: 17},
		{M: 8, K: 40, N: 40},
	}
	tilings := []schedule.Tiling{
		{Tm: 4, Tk: 4, Tn: 4},
		{Tm: 5, Tk: 3, Tn: 2},
	}
	// 1.5 KiB residency forces evictions and partial-sum spills on the
	// larger layers; 64 KiB keeps everything resident.
	for _, spm := range []int64{3 * 1024, 128 * 1024} {
		cfg := testCfg(spm)
		for _, d := range dims {
			for _, tl := range tilings {
				p := params(d, tl)
				scheds := []schedule.Schedule{
					schedule.BaselineBackward(p),
					schedule.BaselineBackwardOrdered(p, schedule.DXOrderKM, schedule.DWOrderNK),
					core.InterleaveOnly(p),
					core.InterleaveDXMajor(p),
					core.InterleaveDWMajor(p),
					core.InterleaveDXMajorChunked(p, 2),
					core.InterleaveDWMajorChunked(p, 2),
				}
				for _, s := range scheds {
					for _, opts := range []sim.Options{{}, {FreeDYOnDW: true}} {
						got := sim.RunSchedules(cfg, opts, s)
						want := ReplaySchedules(cfg, Options{FreeDYOnDW: opts.FreeDYOnDW}, s)
						if err := Compare(got, want); err != nil {
							t.Fatalf("%v %v spm=%d free=%v: %v", d, s.Name, spm, opts.FreeDYOnDW, err)
						}
					}
				}
				// Kernel boundaries: dX and dW as separate flushed schedules.
				dx := schedule.Schedule{Name: "dx", Ops: schedule.BaselineDX(p)}
				dw := schedule.Schedule{Name: "dw", Ops: schedule.BaselineDW(p)}
				got := sim.RunSchedules(cfg, sim.Options{}, dx, dw)
				want := ReplaySchedules(cfg, Options{}, dx, dw)
				if err := Compare(got, want); err != nil {
					t.Fatalf("%v two-kernel spm=%d: %v", d, spm, err)
				}
			}
		}
	}
}

// TestSpillsExercised proves the agreement sweep actually covers the spill
// path: under the tight scratchpad at least one schedule must spill.
func TestSpillsExercised(t *testing.T) {
	cfg := testCfg(3 * 1024)
	p := params(tensor.Dims{M: 8, K: 40, N: 40}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	want := ReplaySchedules(cfg, Options{}, core.InterleaveDXMajor(p))
	if want.Spills == 0 {
		t.Fatal("tight configuration spilled nothing; agreement sweep is not covering pressure")
	}
	if want.Traffic.Write[dram.ClassAcc] == 0 || want.Traffic.Read[dram.ClassAcc] == 0 {
		t.Fatalf("spilled partials moved no intermediate traffic: %+v", want.Traffic)
	}
}

// TestCompareReportsEveryDivergence corrupts each comparable field in turn
// and checks Compare names it.
func TestCompareReportsEveryDivergence(t *testing.T) {
	cfg := testCfg(4096)
	p := params(tensor.Dims{M: 4, K: 4, N: 4}, schedule.Tiling{Tm: 2, Tk: 2, Tn: 2})
	s := core.InterleaveDXMajor(p)
	res := sim.RunSchedules(cfg, sim.Options{}, s)
	want := ReplaySchedules(cfg, Options{}, s)
	if err := Compare(res, want); err != nil {
		t.Fatalf("clean comparison failed: %v", err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(*sim.Result)
	}{
		{"Cycles", func(r *sim.Result) { r.Cycles++ }},
		{"ComputeCycles", func(r *sim.Result) { r.ComputeCycles-- }},
		{"MemCycles", func(r *sim.Result) { r.MemCycles++ }},
		{"Ops", func(r *sim.Result) { r.Ops++ }},
		{"SPM.Hits", func(r *sim.Result) { r.SPM.Hits++ }},
		{"SPM.Misses", func(r *sim.Result) { r.SPM.Misses-- }},
		{"SPM.Evictions", func(r *sim.Result) { r.SPM.Evictions++ }},
		{"Spills", func(r *sim.Result) { r.Spills++ }},
		{"Traffic.Read[dY]", func(r *sim.Result) { r.Traffic.Read[dram.ClassDY]++ }},
		{"Traffic.Write[dW]", func(r *sim.Result) { r.Traffic.Write[dram.ClassDW]-- }},
	} {
		bad := res
		tc.corrupt(&bad)
		err := Compare(bad, want)
		if err == nil {
			t.Fatalf("%s corruption not detected", tc.name)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s corruption reported as %q", tc.name, err)
		}
	}
}

// multiPhases is a two-phase workload for up to three cores: in each phase
// the cores walk the same layer's dY tiles in different loop orders, so a
// shared scratchpad yields cross-core hits.
func multiPhases(p schedule.TileParams, cores int) [][][]schedule.Op {
	dx := [][]schedule.Op{schedule.BaselineDX(p), schedule.BaselineDXOrdered(p, schedule.DXOrderKM), core.InterleaveDXMajor(p).Ops}
	dw := [][]schedule.Op{schedule.BaselineDW(p), schedule.BaselineDWOrdered(p, schedule.DWOrderNK), core.InterleaveDWMajor(p).Ops}
	return [][][]schedule.Op{dx[:cores], dw[:cores]}
}

// runPhases runs phases once through sim.RunMultiKeyed, without a key.
func runPhases(cfg config.NPU, opts sim.Options, phases [][][]schedule.Op, shared bool) sim.MultiResult {
	return sim.RunMultiKeyed(cfg, opts, nil, shared, func() *schedule.Program { return sim.CompilePhases(phases) })
}

// TestMultiAgreesWithEngine holds ReplayMulti to a one-shot
// sim.RunMultiKeyed run of the program sim.CompilePhases lowers on every
// counter: one to three cores, shared and private placement, roomy
// and pressure-tight scratchpads, both dY regimes.
func TestMultiAgreesWithEngine(t *testing.T) {
	var sharedHits, spills int64
	for _, spm := range []int64{1024, 3 * 1024, 64 * 1024} {
		for _, d := range []tensor.Dims{{M: 16, K: 16, N: 16}, {M: 13, K: 9, N: 7}, {M: 8, K: 40, N: 40}} {
			p := params(d, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
			for cores := 1; cores <= 3; cores++ {
				cfg := testCfg(spm).WithCores(cores)
				for _, shared := range []bool{true, false} {
					for _, free := range []bool{false, true} {
						got := runPhases(cfg, sim.Options{FreeDYOnDW: free}, multiPhases(p, cores), shared)
						want := ReplayMulti(cfg, Options{FreeDYOnDW: free}, multiPhases(p, cores), shared)
						if err := CompareMulti(got, want); err != nil {
							t.Fatalf("%v spm=%d cores=%d shared=%v free=%v: %v", d, spm, cores, shared, free, err)
						}
						sharedHits += want.SharedHits
						for _, c := range want.PerCore {
							spills += c.Spills
						}
					}
				}
			}
		}
	}
	if sharedHits == 0 || spills == 0 {
		t.Fatalf("sweep covered %d shared hits and %d spills; it must reach both", sharedHits, spills)
	}
}

// TestMultiSharedHitsHandComputed checks cross-core hit accounting on a
// by-hand case: two cores run the same single-op dX GEMM. Round 0 serves
// core 0 (both operands miss), then core 1, whose dY and W operands hit
// tiles core 0 placed — two shared hits. Its output tile is the same key,
// already drained by core 0, so core 1 places it afresh. Private placement
// fetches everything twice and credits nothing.
func TestMultiSharedHitsHandComputed(t *testing.T) {
	p := params(tensor.Dims{M: 2, K: 2, N: 2}, schedule.Tiling{Tm: 2, Tk: 2, Tn: 2})
	op := p.DXOp(0, 0, 0, 1)
	cfg := testCfg(4096).WithCores(2)
	phases := [][][]schedule.Op{{{op}, {op}}}

	sh := ReplayMulti(cfg, Options{}, phases, true)
	if sh.SharedHits != 2 || sh.PerCore[0].Hits != 2 || sh.PerCore[0].Misses != 2 {
		t.Fatalf("shared: shared hits %d, hits/misses %d/%d, want 2, 2/2", sh.SharedHits, sh.PerCore[0].Hits, sh.PerCore[0].Misses)
	}
	if sh.Traffic.Read[dram.ClassDY] != 16 || sh.Traffic.Read[dram.ClassW] != 16 {
		t.Fatalf("shared: reads %+v, want one copy of each operand", sh.Traffic.Read)
	}
	pr := ReplayMulti(cfg, Options{}, phases, false)
	if pr.SharedHits != 0 || pr.Traffic.Read[dram.ClassDY] != 32 || pr.PerCore[0].Misses != 2 || pr.PerCore[1].Misses != 0 {
		t.Fatalf("private: %+v", pr)
	}
}

// TestCompareMultiReportsEveryDivergence corrupts each multi-core field in
// turn and checks CompareMulti names it.
func TestCompareMultiReportsEveryDivergence(t *testing.T) {
	cfg := testCfg(1024).WithCores(2)
	p := params(tensor.Dims{M: 16, K: 16, N: 16}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	res := runPhases(cfg, sim.Options{}, multiPhases(p, 2), true)
	want := ReplayMulti(cfg, Options{}, multiPhases(p, 2), true)
	if err := CompareMulti(res, want); err != nil {
		t.Fatalf("clean comparison failed: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*sim.MultiResult)
	}{
		{"Cycles", func(r *sim.MultiResult) { r.Cycles++ }},
		{"SharedHits", func(r *sim.MultiResult) { r.SharedHits-- }},
		{"Traffic.Read[dY]", func(r *sim.MultiResult) { r.Traffic.Read[dram.ClassDY]++ }},
		{"len(PerCore)", func(r *sim.MultiResult) { r.PerCore = r.PerCore[:1] }},
		{"PerCore[0].SPM.Hits", func(r *sim.MultiResult) { r.PerCore[0].SPM.Hits++ }},
		{"PerCore[1].Spills", func(r *sim.MultiResult) { r.PerCore[1].Spills++ }},
		{"PerCore[1].Traffic.Write[dX]", func(r *sim.MultiResult) { r.PerCore[1].Traffic.Write[dram.ClassDX]-- }},
	} {
		bad := res
		bad.PerCore = append([]sim.Result(nil), res.PerCore...)
		tc.corrupt(&bad)
		err := CompareMulti(bad, want)
		if err == nil {
			t.Fatalf("%s corruption not detected", tc.name)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s corruption reported as %q", tc.name, err)
		}
	}
}
