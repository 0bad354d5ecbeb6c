package sim

import (
	"testing"

	"igosim/internal/metrics"
	"igosim/internal/schedule"
	"igosim/internal/tensor"
)

// TestMultiPassCountsEvictionsAndSpills holds the pass counters to what a
// multi-core pass reports: sim_spm_evictions_total grows by the core-0
// set's evictions (MultiResult's SPM stats) and sim_spill_tiles_total by
// every core's spills, under private and shared placement.
func TestMultiPassCountsEvictionsAndSpills(t *testing.T) {
	cfg := testCfg().WithCores(2)
	p := params(tensor.Dims{M: 32, K: 32, N: 32}, schedule.Tiling{Tm: 4, Tk: 4, Tn: 4})
	ops := schedule.DXMajorOps(p, 1)
	q := p
	q.Layer = 2
	for _, shared := range []bool{false, true} {
		ev, sp := metrics.Value("sim_spm_evictions_total"), metrics.Value("sim_spill_tiles_total")
		r := runPhases(cfg, Options{}, [][][]schedule.Op{{ops, schedule.DXMajorOps(q, 1)}}, shared)
		wantEv, wantSp := r.PerCore[0].SPM.Evictions, r.PerCore[0].Spills+r.PerCore[1].Spills
		if wantEv == 0 || r.PerCore[1].Spills == 0 {
			t.Fatalf("shared=%v: the pass neither evicts nor spills on core 1 (%+v): the check proves nothing", shared, r.PerCore)
		}
		if got := metrics.Value("sim_spm_evictions_total") - ev; got != wantEv {
			t.Errorf("shared=%v: evictions counter grew by %d, want %d", shared, got, wantEv)
		}
		if got := metrics.Value("sim_spill_tiles_total") - sp; got != wantSp {
			t.Errorf("shared=%v: spills counter grew by %d, want %d", shared, got, wantSp)
		}
	}
}
