package core

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/metrics"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// searchedPlan is one plan of a layer and the kernels its parts run.
type searchedPlan struct {
	plan    Plan
	kernels []partKernels
}

// searchedPlans lists the single-core plans RunBackward runs for p: the
// whole layer under every policy, dW-only or not, and every candidate of
// PolPartition's search, plus each candidate under the baseline pair,
// whose parts' kernels run phase-major.
func searchedPlans(cfg config.NPU, p schedule.TileParams) []searchedPlan {
	whole := PartitionLayer(p, NoPartition, 1)
	var out []searchedPlan
	for _, pol := range Policies() {
		for _, skipDX := range []bool{false, true} {
			out = append(out, searchedPlan{whole, tunedChoices(cfg, whole.Parts, pol, skipDX)})
		}
	}
	for _, scheme := range Schemes() {
		for _, parts := range []int{2, 4} {
			plan := PartitionLayer(p, scheme, parts)
			if len(plan.Parts) < 2 {
				continue
			}
			for _, pol := range []Policy{PolRearrange, PolBaseline} {
				out = append(out, searchedPlan{plan, tunedChoices(cfg, plan.Parts, pol, false)})
			}
		}
	}
	return out
}

// enginePlan runs sp's planProgram on the engine and completes the
// outcome as runPlan does.
func enginePlan(cfg config.NPU, p schedule.TileParams, sp searchedPlan) LayerOutcome {
	n := len(sp.plan.Parts)
	out := outcomeFromResult(sim.ExecuteProgram(cfg, sim.Options{}, planProgram(sp.plan.Parts, sp.kernels, false)))
	out.addReductions(sp.plan.ReduceResults(cfg))
	out.Dims, out.Order, out.Scheme, out.Parts = p.Dims, kernelOrders[sp.kernels[n-1][0].kind], sp.plan.Scheme, n
	return out
}

// TestComposedPlansMatchEngine holds every single-core plan the partition
// search runs, and the whole layer under every policy, to its program:
// the outcome runPlan composes from the tuners' runs must equal running
// planProgram on the engine. The layers cover keyed and oversized shapes,
// and their partitions DX- and DW-partial parts; each runs at two
// bandwidths on warm caches, so the second tunes by replaying the keyed
// families and its plans read their members back, and everything runs
// again with the trace cache disabled (-residency-cache 0), where every
// family runs.
func TestComposedPlansMatchEngine(t *testing.T) {
	small := config.SmallNPU()
	gpu, big := oversizedParams(t)
	layers := []struct {
		cfg config.NPU
		p   schedule.TileParams
	}{
		{small, LayerParams(tensor.Dims{M: 96, K: 384, N: 160}, 1, small)},
		{small, LayerParams(tensor.Dims{M: 4096, K: 64, N: 64}, 2, small)},
		{small, LayerParams(tensor.Dims{M: 64, K: 64, N: 4096}, 3, small)},
		{gpu, big[0]},
	}
	var keyed, oversized, partialDX, partialDW, readBack, majors int
	defer ResetCaches()
	for _, budget := range []int{sim.ResidencyCacheBytes(), 0} {
		prev := sim.SetResidencyCacheBytes(budget)
		ResetCaches()
		for _, l := range layers {
			if useTraceCache(sim.Options{}, l.p) {
				keyed++
			} else {
				oversized++
			}
			for bi, bw := range []float64{l.cfg.DRAMBandwidth, l.cfg.DRAMBandwidth / 2} {
				cfg := l.cfg.WithBandwidth(bw)
				for _, sp := range searchedPlans(cfg, l.p) {
					got := runPlan(cfg, sim.Options{}, l.p, sp.plan, sp.kernels, false, false)
					if want := enginePlan(cfg, l.p, sp); got != want {
						t.Errorf("budget %d %v at %.0f GB/s, %v into %d, kernels %+v: composed\n %+v\nengine\n %+v",
							budget, l.p.Dims, bw/1e9, sp.plan.Scheme, len(sp.plan.Parts), sp.kernels, got, want)
					}
					part := sp.plan.Parts[0]
					if part.DXPartial {
						partialDX++
					}
					if part.DWPartial {
						partialDW++
					}
					if got.Order != OnlyInterleave {
						majors++
					}
					if bi == 1 && budget > 0 && useTraceCache(sim.Options{}, part) && interleaveTune(cfg, part).phase == nil {
						readBack++
					}
				}
			}
		}
		sim.SetResidencyCacheBytes(prev)
	}
	if keyed == 0 || oversized == 0 || partialDX == 0 || partialDW == 0 || readBack == 0 || majors == 0 {
		t.Errorf("coverage: %d keyed and %d oversized layers, %d plans with DX-partial parts, %d with DW-partial parts, %d reading members back, %d on a major order",
			keyed, oversized, partialDX, partialDW, readBack, majors)
	}
}

// TestPartitionSearchLowersNoPlan tunes one of oversizedParams' shapes
// and then partition-searches it from otherwise cold caches. The search
// tunes each part shape it has not seen — the fusion family and the two
// chunked majors, each member run once — and must run nothing else: every
// plan, the whole layer's included, is composed from those runs, so no
// plan program is lowered or run.
func TestPartitionSearchLowersNoPlan(t *testing.T) {
	cfg, ps := oversizedParams(t)
	p := ps[0]
	ResetCaches()
	defer ResetCaches()
	BestOrderSimulated(cfg, p)

	tuned := map[schedule.TileParams]bool{tuneParams(p): true}
	members := 0
	for _, scheme := range Schemes() {
		for _, parts := range []int{2, 4} {
			for _, part := range PartitionLayer(p, scheme, parts).Parts {
				if np := tuneParams(part); !tuned[np] {
					tuned[np] = true
					members += len(mergeCandidates(np)) + 2
				}
			}
		}
	}
	before := metrics.Value("sim_passes_total")
	RunBackward(cfg, sim.Options{}, p, PolPartition, false)
	if got := metrics.Value("sim_passes_total") - before; got != int64(members) {
		t.Errorf("the partition search of %v ran %d engine passes, want the %d of the %d part shapes' tuner families",
			p.Dims, got, members, len(tuned)-1)
	}
}
