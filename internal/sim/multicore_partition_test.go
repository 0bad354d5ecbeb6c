// Multicore partitioning tests live in an external test package: they need
// internal/core (which imports internal/sim) and the proptest coverage
// checker, neither of which an in-package test could import.
package sim_test

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dram"
	"igosim/internal/proptest"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// TestMultiSingleStreamMatchesEngine pins the degenerate multi-core case:
// one core, one stream through RunMultiKeyed must be bit-identical to the
// single-core engine on every counter — the round-robin merge, shared
// residency set and per-core pipe bookkeeping must all collapse to exactly
// the plain pipeline.
func TestMultiSingleStreamMatchesEngine(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		c := proptest.GenCase(proptest.NewSource(seed))
		cfg := c.Config() // Cores == 1 by construction
		for _, s := range c.Schedules() {
			want := sim.RunSchedules(cfg, sim.Options{}, s)
			got := sim.RunPhases(cfg, sim.Options{}, [][][]schedule.Op{{s.Ops}}, true)
			if len(got.PerCore) != 1 {
				t.Fatalf("seed %d: %d per-core results, want 1", seed, len(got.PerCore))
			}
			if got.PerCore[0] != want {
				t.Fatalf("seed %d %s: single-stream multi-core run diverges from engine\n  multi:  %+v\n  engine: %+v",
					seed, s.Name, got.PerCore[0], want)
			}
			if got.Cycles != want.Cycles || got.Traffic != want.Traffic {
				t.Fatalf("seed %d %s: aggregate (cycles %d, traffic %+v) != engine (cycles %d, traffic %+v)",
					seed, s.Name, got.Cycles, got.Traffic, want.Cycles, want.Traffic)
			}
			if got.SharedHits != 0 {
				t.Fatalf("seed %d %s: %d shared hits with a single core", seed, s.Name, got.SharedHits)
			}
		}
	}
}

// TestSinglePartitionPlanIsIdentity pins PartitionLayer with one partition:
// for every scheme the plan must hold exactly the parent parameters, carry
// no reduction, and simulate to the same result as the unpartitioned layer.
func TestSinglePartitionPlanIsIdentity(t *testing.T) {
	d := tensor.Dims{M: 33, K: 22, N: 11}
	tl := schedule.Tiling{Tm: 7, Tk: 6, Tn: 4}
	p := schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}
	cfg := config.SmallNPU()

	base := core.Interleaved(p, core.SelectOrder(p.Dims))
	want := sim.RunSchedules(cfg, sim.Options{}, base)

	for _, scheme := range core.Schemes() {
		plan := core.PartitionLayer(p, scheme, 1)
		if len(plan.Parts) != 1 {
			t.Fatalf("%v: %d partitions from parts=1", scheme, len(plan.Parts))
		}
		if len(plan.Reductions) != 0 {
			t.Fatalf("%v: single-partition plan requires a reduction", scheme)
		}
		if plan.Parts[0] != p {
			t.Fatalf("%v: single partition drifted from parent params\n  got  %+v\n  want %+v", scheme, plan.Parts[0], p)
		}
		s := core.Interleaved(plan.Parts[0], core.SelectOrder(plan.Parts[0].Dims))
		got := sim.RunSchedules(cfg, sim.Options{}, s)
		if got != want {
			t.Fatalf("%v: single-partition result diverges from unpartitioned\n  got  %+v\n  want %+v", scheme, got, want)
		}
	}
}

// TestUnevenPartitionCoverage splits tile grids that do not divide evenly
// (5, 4 and 3 tiles into 2..5 partitions) along each of M, N and K and
// proves the union of partition streams covers the parent tile grid exactly
// once per gradient — no dropped, duplicated or out-of-range tile work —
// and that the multi-core engine executes the full op count.
func TestUnevenPartitionCoverage(t *testing.T) {
	// mt=5, kt=4, nt=3: every scheme gets a grid its partition counts
	// cannot split evenly.
	d := tensor.Dims{M: 33, K: 22, N: 11}
	tl := schedule.Tiling{Tm: 7, Tk: 6, Tn: 4}
	p := schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}
	mt, kt, nt := tl.Counts(d)
	wantOps := int64(2 * mt * kt * nt)

	for _, scheme := range core.Schemes() {
		for parts := 2; parts <= 5; parts++ {
			plan := core.PartitionLayer(p, scheme, parts)
			if got := plan.Dims(); got != d {
				t.Fatalf("%v x%d: plan dims %v != parent %v", scheme, parts, got, d)
			}
			streams := make([][]schedule.Op, len(plan.Parts))
			var total int64
			for i, sub := range plan.Parts {
				s := core.Interleaved(sub, core.SelectOrder(sub.Dims))
				if err := schedule.VerifyBackward(sub, s.Ops, false); err != nil {
					t.Fatalf("%v x%d partition %d: %v", scheme, parts, i, err)
				}
				streams[i] = s.Ops
				total += int64(len(s.Ops))
			}
			if total != wantOps {
				t.Fatalf("%v x%d: %d ops across partitions, want %d", scheme, parts, total, wantOps)
			}
			if err := proptest.CheckCoverage(d, tl, streams); err != nil {
				t.Fatalf("%v x%d: %v", scheme, parts, err)
			}

			cfg := config.SmallNPU()
			cfg.Cores = len(streams)
			res := sim.RunPhases(cfg, sim.Options{}, [][][]schedule.Op{streams}, true)
			var ops int64
			for _, r := range res.PerCore {
				ops += r.Ops
			}
			if ops != wantOps {
				t.Fatalf("%v x%d: multicore executed %d ops, want %d", scheme, parts, ops, wantOps)
			}
		}
	}
}

// TestPartitionSpillsAccountedUnderPressure runs an uneven K split on a
// deliberately tiny shared scratchpad and checks the multi-core engine's
// pressure accounting stays consistent: spill writebacks appear as
// accumulator-class traffic, and every spill has its writeback.
func TestPartitionSpillsAccountedUnderPressure(t *testing.T) {
	d := tensor.Dims{M: 8, K: 40, N: 40}
	tl := schedule.Tiling{Tm: 4, Tk: 4, Tn: 4}
	p := schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}

	plan := core.PartitionLayer(p, core.IfmapSharing, 3)
	var streams [][]schedule.Op
	for _, sub := range plan.Parts {
		s, _ := core.RearrangedTuned(config.SmallNPU(), sub)
		streams = append(streams, s.Ops)
	}

	cfg := config.SmallNPU()
	cfg.Cores = len(streams)
	cfg.SPMBytes = 1 << 10 // ~0.5 KiB residency half per core: forces spills
	res := sim.RunPhases(cfg, sim.Options{}, [][][]schedule.Op{streams}, true)

	var spills int64
	for _, r := range res.PerCore {
		spills += r.Spills
	}
	if spills == 0 {
		t.Fatal("tiny scratchpad produced no spills; pressure path untested")
	}
	var accWrites int64
	for _, r := range res.PerCore {
		accWrites += r.Traffic.Write[dram.ClassAcc]
	}
	if accWrites == 0 {
		t.Fatal("spills recorded without accumulator writeback traffic")
	}
}
