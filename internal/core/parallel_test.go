package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"igosim/internal/config"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// layerResults snapshots everything the tuned simulation paths produce for
// one layer: the tuning caches (baseline, interleave, order selection) and
// the memoized per-layer outcomes of three policies.
type layerResults struct {
	base LayerOutcome
	ilv  LayerOutcome
	rea  LayerOutcome
	ord  Order
	tune ordersVal
	itun recipe
}

func computeLayer(cfg config.NPU, p LayerPlan) layerResults {
	return layerResults{
		base: RunBackwardMulti(cfg, sim.Options{}, p.Params, PolBaseline, p.Layer.SkipDX),
		ilv:  RunBackwardMulti(cfg, sim.Options{}, p.Params, PolInterleave, p.Layer.SkipDX),
		rea:  RunBackwardMulti(cfg, sim.Options{}, p.Params, PolRearrange, p.Layer.SkipDX),
		ord:  BestOrderSimulated(cfg, p.Params),
		tune: baselineChoices(cfg, p.Params),
		itun: interleaveChoices(cfg, p.Params),
	}
}

// TestParallelHammerMatchesSequential drives the tuning caches and the
// layer memo from 16 goroutines at once against a cold cache and asserts
// every goroutine sees results identical to a sequential cold run. Run
// with -race: this is the test that catches unsynchronized cache state.
func TestParallelHammerMatchesSequential(t *testing.T) {
	cfg := config.SmallNPU()
	m, err := workload.ByAbbr(workload.EdgeSuite(), "ncf")
	if err != nil {
		t.Fatal(err)
	}
	plans := PlanModel(cfg, m)
	if len(plans) == 0 {
		t.Fatal("no plans")
	}

	// Sequential cold reference.
	prev := runner.SetParallelism(1)
	defer runner.SetParallelism(prev)
	ResetCaches()
	ref := make([]layerResults, len(plans))
	for i, p := range plans {
		ref[i] = computeLayer(cfg, p)
	}

	// 16 goroutines recompute every layer concurrently against cold
	// caches: misses race, GetOrCompute may compute twice, and every
	// goroutine must still observe the sequential answer.
	runner.SetParallelism(16)
	ResetCaches()
	const goroutines = 16
	got := make([][]layerResults, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			out := make([]layerResults, len(plans))
			for i, p := range plans {
				out[i] = computeLayer(cfg, p)
			}
			got[g] = out
		}()
	}
	wg.Wait()

	for g := range got {
		for i := range plans {
			if !reflect.DeepEqual(got[g][i], ref[i]) {
				t.Fatalf("goroutine %d layer %d: parallel result differs from sequential\nparallel:   %+v\nsequential: %+v",
					g, i, got[g][i], ref[i])
			}
		}
	}
}

// TestRunTrainingParallelMatchesSequential asserts a whole-model training
// run is bit-identical at width 1 (cold) and width 8 (cold).
func TestRunTrainingParallelMatchesSequential(t *testing.T) {
	cfg := config.SmallNPU()
	m, err := workload.ByAbbr(workload.EdgeSuite(), "ncf")
	if err != nil {
		t.Fatal(err)
	}
	prev := runner.SetParallelism(1)
	defer runner.SetParallelism(prev)
	ResetCaches()
	seq := RunTraining(cfg, sim.Options{}, m, PolRearrange)

	runner.SetParallelism(8)
	ResetCaches()
	par := RunTraining(cfg, sim.Options{}, m, PolRearrange)

	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("training run differs across widths\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestLayerMemoHitRate checks the shape-keyed memo pays on a repeated-block
// workload: one cold ResNet training step must serve more than half its
// layer-memo lookups without simulating, since most blocks repeat the same
// GEMM shapes. A served lookup is a hit or a joined flight (coalesced);
// which of the two it is depends on goroutine scheduling, but their sum,
// the lookups less the distinct keys, does not.
func TestLayerMemoHitRate(t *testing.T) {
	cfg := config.LargeNPU()
	m, err := workload.ByAbbr(workload.ServerSuite(), "res")
	if err != nil {
		t.Fatal(err)
	}
	prev := runner.SetParallelism(4)
	defer runner.SetParallelism(prev)
	ResetCaches()
	RunTraining(cfg, sim.Options{}, m, PolBaseline)
	snap := LayerMemoStats()
	lookups := snap.Lookups()
	if lookups == 0 {
		t.Fatal("training did not consult the layer memo")
	}
	served := lookups - snap.Entries
	if served != snap.Hits+snap.Coalesced {
		t.Errorf("%d lookups of %d keys, but %d hits and %d coalesced: a key was simulated twice",
			lookups, snap.Entries, snap.Hits, snap.Coalesced)
	}
	if 2*served <= lookups {
		t.Fatalf("layer memo served %d of %d lookups on ResNet (%d hits, %d coalesced), want > 50%%",
			served, lookups, snap.Hits, snap.Coalesced)
	}
	t.Logf("layer memo on ResNet: %s, %d coalesced", snap, snap.Coalesced)
}

// TestOpTablesRecycleConcurrently runs every layer of a model, whole on
// one core and data-parallel on two, under three policies and two
// bandwidths, from 4 goroutines at once against cold caches and with the
// trace cache disabled, so that every run and every tuner family lowers
// its program and hands its op table back to opTables. The goroutines walk
// the runs from different starting points, so a table one shape recycles
// is redrawn, stale, by another shape's lowering on another goroutine.
// Every outcome must equal a sequential run's. Run with -race: a table
// recycled while a run still reads it is a data race.
func TestOpTablesRecycleConcurrently(t *testing.T) {
	base := config.SmallNPU()
	m := workload.MobileNet()
	type job struct {
		cfg   config.NPU
		p     schedule.TileParams
		pol   Policy
		multi bool
	}
	var jobs []job
	for _, bw := range []float64{8e9, 64e9} {
		cfg := base
		cfg.DRAMBandwidth = bw
		for _, lp := range PlanModel(base, m) {
			for _, pol := range []Policy{PolBaseline, PolInterleave, PolRearrange} {
				jobs = append(jobs, job{cfg, lp.Params, pol, false}, job{cfg.WithCores(2), lp.Params, pol, true})
			}
		}
	}
	run := func(j job) LayerOutcome {
		plan := PartitionLayer(j.p, NoPartition, 1)
		if j.multi {
			plan = PartitionLayer(j.p, WeightSharing, 2)
		}
		return runPlan(j.cfg, sim.Options{}, j.p, plan, tunedChoices(j.cfg, plan.Parts, j.pol, false), j.multi, false)
	}
	prevBytes := sim.SetResidencyCacheBytes(0)
	defer sim.SetResidencyCacheBytes(prevBytes)
	defer ResetCaches()

	ResetCaches()
	ref := make([]LayerOutcome, len(jobs))
	for i, j := range jobs {
		ref[i] = run(j)
	}

	ResetCaches()
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	errs := make([]string, goroutines)
	for g := range goroutines {
		go func() {
			defer wg.Done()
			for n := range jobs {
				i := (n + g*len(jobs)/goroutines) % len(jobs)
				if got := run(jobs[i]); !reflect.DeepEqual(got, ref[i]) {
					errs[g] = fmt.Sprintf("goroutine %d run %d: %+v, want %+v", g, i, got, ref[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}

// TestLayerMemoSingleFlight has 8 goroutines run one cold layer key
// through RunBackwardMulti at once: the layer memo must simulate it once,
// so core_layer_sims_total grows by exactly 1, and the rest must be
// served that one outcome.
func TestLayerMemoSingleFlight(t *testing.T) {
	cfg := config.SmallNPU().WithCores(4)
	m, err := workload.ByAbbr(workload.EdgeSuite(), "ncf")
	if err != nil {
		t.Fatal(err)
	}
	p := PlanModel(cfg, m)[0].Params
	ResetCaches()
	defer ResetCaches()
	sims := metrics.Value("core_layer_sims_total")
	const callers = 8
	outs := make([]LayerOutcome, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			outs[g] = RunBackwardMulti(cfg, sim.Options{}, p, PolPartition, false)
		}()
	}
	close(start)
	wg.Wait()
	if n := metrics.Value("core_layer_sims_total") - sims; n != 1 {
		t.Errorf("%d layer simulations for one key, want 1", n)
	}
	if s := LayerMemoStats(); s.Misses != 1 || s.Lookups() != callers {
		t.Errorf("layer memo %+v, want 1 miss in %d lookups", s, callers)
	}
	for g := range outs {
		if !reflect.DeepEqual(outs[g], outs[0]) {
			t.Fatalf("caller %d got %+v, caller 0 %+v", g, outs[g], outs[0])
		}
	}
}
