package core

import (
	"runtime"
	"sync"
	"testing"

	"igosim/internal/config"
	"igosim/internal/metrics"
	"igosim/internal/sim"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

// reportLeg is one way of tracing a model's layers into a sink: label
// names the layer's tracks ("" leaves the engine defaults).
type reportLeg func(cfg config.NPU, sink *trace.Sink, label string, lp LayerPlan, pol Policy)

// singleCoreLeg traces a layer as serve's trace report does: the forward
// pass, then the single-core backward pass under pol.
func singleCoreLeg(cfg config.NPU, sink *trace.Sink, label string, lp LayerPlan, pol Policy) {
	fwd, bwd := label, label
	if label != "" {
		fwd, bwd = label+" fwd", label+" bwd"
	}
	RunForward(cfg, sim.Options{Trace: sink, TraceLabel: fwd}, lp.Params)
	RunBackward(cfg, sim.Options{Trace: sink, TraceLabel: bwd}, lp.Params, pol, lp.Layer.SkipDX)
}

// multiCoreLeg traces a layer's multi-core forward and backward passes,
// past the layer memo, whose hits would trace nothing.
func multiCoreLeg(cfg config.NPU, sink *trace.Sink, label string, lp LayerPlan, pol Policy) {
	runForwardMulti(cfg, sim.Options{Trace: sink, TraceLabel: label}, lp.Params)
	runBackwardMulti(cfg, sim.Options{Trace: sink, TraceLabel: label}, lp.Params, pol, lp.Layer.SkipDX)
}

// traceModel runs leg over every layer of plans into sink, labelling
// layers "model/layer" unless bare, and returns the sink's report after
// checking that the sink reconciles.
func traceModel(t *testing.T, cfg config.NPU, sink *trace.Sink, plans []LayerPlan, pol Policy, leg reportLeg, bare bool) string {
	t.Helper()
	for _, lp := range plans {
		label := ""
		if !bare {
			label = "m/" + lp.Layer.Name
		}
		leg(cfg, sink, label, lp, pol)
	}
	if err := sink.Check(); err != nil {
		t.Fatal(err)
	}
	return sink.Metrics().Report()
}

// withinBudget returns the plans whose layers the summary memo covers.
func withinBudget(plans []LayerPlan) []LayerPlan {
	var out []LayerPlan
	for _, lp := range plans {
		if lp.Params.OpCount() <= panelOpBudget {
			out = append(out, lp)
		}
	}
	return out
}

// TestSummaryMemoReportsMatchFull holds summary-traced reports served by
// the summary memo to the memo-free oracle, a full sink: for MobileNet and
// NCF on config.SmallNPU under every policy, single-core (skipDX first
// layers included) and on four cores, labelled and with the engines'
// default track names, each report must equal the full sink's text. The
// policies run in turn on one memo, first cold, then again after the memo
// was warmed under the other labelling, so served tracks must be the
// caller's policy's and take the caller's names. The warm reports must be
// served: memo hits grow, and layers within panelOpBudget run no engine
// pass.
func TestSummaryMemoReportsMatchFull(t *testing.T) {
	small := config.SmallNPU()
	legs := []struct {
		name string
		cfg  config.NPU
		leg  reportLeg
		bare bool
	}{
		{"single", small, singleCoreLeg, false},
		{"four-core", small.WithCores(4), multiCoreLeg, false},
		{"unlabelled", small, singleCoreLeg, true},
		{"four-core-unlabelled", small.WithCores(4), multiCoreLeg, true},
	}
	defer ResetCaches()
	for _, m := range []workload.Model{workload.MobileNet(), workload.NCF()} {
		for _, l := range legs {
			plans := PlanModel(l.cfg, m)
			want := map[Policy]string{}
			for _, pol := range Policies() {
				ResetCaches()
				want[pol] = traceModel(t, l.cfg, trace.New(), plans, pol, l.leg, l.bare)
			}
			ResetCaches()
			for _, pol := range Policies() {
				if got := traceModel(t, l.cfg, trace.NewSummary(), plans, pol, l.leg, l.bare); got != want[pol] {
					t.Fatalf("%s %s %v: report on a cold memo diverged:\n got %s\nwant %s", m.Abbr, l.name, pol, got, want[pol])
				}
			}
			ResetCaches()
			for _, pol := range Policies() {
				traceModel(t, l.cfg, trace.NewSummary(), plans, pol, l.leg, !l.bare)
			}
			for _, pol := range Policies() {
				hits := summaryCounters.Snapshot().Hits
				if got := traceModel(t, l.cfg, trace.NewSummary(), plans, pol, l.leg, l.bare); got != want[pol] {
					t.Fatalf("%s %s %v: report on a warm memo diverged:\n got %s\nwant %s", m.Abbr, l.name, pol, got, want[pol])
				}
				if summaryCounters.Snapshot().Hits == hits {
					t.Fatalf("%s %s %v: the warm report was not served from the memo", m.Abbr, l.name, pol)
				}
				passes := metrics.Value("sim_passes_total")
				traceModel(t, l.cfg, trace.NewSummary(), withinBudget(plans), pol, l.leg, l.bare)
				if n := metrics.Value("sim_passes_total") - passes; n != 0 {
					t.Fatalf("%s %s %v: the warm layers within panelOpBudget ran %d engine passes", m.Abbr, l.name, pol, n)
				}
			}
		}
	}
}

// TestSummaryMemoKeysSeparateRuns warms the summary memo with one run and
// then reports on another that shares its layer shapes but must not share
// its plans: the same configuration at half the DRAM bandwidth (stall
// attribution depends on timing), every layer whole after every layer
// dW-only, with dY reads charged after a run with them free, and each
// layer under an order a selector forces after its tuned run (the
// selector study's runs). It also reports under one policy after warming
// under another, which shares the plans that run the same kernels:
// rearrangement after interleaving, and a dW-only model under
// partitioning after the baseline. The report must equal a full sink's.
func TestSummaryMemoKeysSeparateRuns(t *testing.T) {
	small := config.SmallNPU()
	slow := small.WithBandwidth(small.DRAMBandwidth / 2)
	four := small.WithCores(4)
	dwOnly := func(leg reportLeg) reportLeg {
		return func(cfg config.NPU, sink *trace.Sink, label string, lp LayerPlan, pol Policy) {
			lp.Layer.SkipDX = true
			leg(cfg, sink, label, lp, pol)
		}
	}
	// backward traces only the backward pass, so that only backward plans
	// can be served across policies.
	backward := func(cfg config.NPU, sink *trace.Sink, label string, lp LayerPlan, pol Policy) {
		RunBackward(cfg, sim.Options{Trace: sink, TraceLabel: label}, lp.Params, pol, lp.Layer.SkipDX)
	}
	freeDY := func(cfg config.NPU, sink *trace.Sink, label string, lp LayerPlan, pol Policy) {
		RunBackward(cfg, sim.Options{Trace: sink, TraceLabel: label, FreeDYOnDW: true}, lp.Params, pol, lp.Layer.SkipDX)
	}
	// forced runs each layer's backward pass as the selector study does,
	// under an order other than the tuned one.
	forced := func(cfg config.NPU, sink *trace.Sink, label string, lp LayerPlan, _ Policy) {
		if !lp.Layer.SkipDX {
			o := (BestOrderSimulated(cfg, lp.Params) + 1) % Order(len(Orders()))
			runSelectorBackward(cfg, sim.Options{Trace: sink, TraceLabel: label}, lp.Params, o)
		}
	}
	cases := []struct {
		name         string
		warm, cfg    config.NPU
		warmLeg      reportLeg
		leg          reportLeg
		warmPol, pol Policy
	}{
		{"half-bandwidth", small, slow, singleCoreLeg, singleCoreLeg, PolPartition, PolPartition},
		{"dW-only", small, small, dwOnly(singleCoreLeg), singleCoreLeg, PolBaseline, PolBaseline},
		{"four-core-dW-only", four, four, dwOnly(multiCoreLeg), multiCoreLeg, PolBaseline, PolBaseline},
		{"free-dY", small, small, freeDY, singleCoreLeg, PolRearrange, PolRearrange},
		{"selector-forced", small, small, singleCoreLeg, forced, PolRearrange, PolRearrange},
		{"interleave-then-rearrange", small, small, backward, backward, PolInterleave, PolRearrange},
		{"dW-only-baseline-then-partition", small, small, dwOnly(backward), dwOnly(backward), PolBaseline, PolPartition},
	}
	defer ResetCaches()
	for _, m := range []workload.Model{workload.MobileNet(), workload.NCF()} {
		for _, c := range cases {
			plans := PlanModel(c.cfg, m)
			ResetCaches()
			want := traceModel(t, c.cfg, trace.New(), plans, c.pol, c.leg, false)
			ResetCaches()
			traceModel(t, c.warm, trace.NewSummary(), PlanModel(c.warm, m), c.warmPol, c.warmLeg, false)
			hits := summaryCounters.Snapshot().Hits
			if got := traceModel(t, c.cfg, trace.NewSummary(), plans, c.pol, c.leg, false); got != want {
				t.Fatalf("%s %s: report after the warming run diverged:\n got %s\nwant %s", m.Abbr, c.name, got, want)
			}
			if c.warmPol != c.pol && summaryCounters.Snapshot().Hits == hits {
				t.Fatalf("%s %s: no plan of the report was served from the other policy's run", m.Abbr, c.name)
			}
		}
	}
}

// TestSummaryMemoConcurrentReports has several goroutines trace the same
// and different models into their own summary sinks at once, from a cold
// memo, so misses race, fill the memo, and serve each other: every report
// must equal the full sink's. Run with -race.
func TestSummaryMemoConcurrentReports(t *testing.T) {
	cfg := config.SmallNPU()
	models := []workload.Model{workload.NCF(), workload.MobileNet()}
	want := make([]string, len(models))
	defer ResetCaches()
	for i, m := range models {
		ResetCaches()
		want[i] = traceModel(t, cfg, trace.New(), PlanModel(cfg, m), PolPartition, singleCoreLeg, false)
	}
	ResetCaches()
	const workers = 6
	got := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := trace.NewSummary()
			for _, lp := range PlanModel(cfg, models[w%len(models)]) {
				singleCoreLeg(cfg, sink, "m/"+lp.Layer.Name, lp, PolPartition)
			}
			errs[w] = sink.Check()
			got[w] = sink.Metrics().Report()
		}(w)
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if got[w] != want[w%len(models)] {
			t.Fatalf("worker %d (%s): report diverged:\n got %s\nwant %s", w, models[w%len(models)].Abbr, got[w], want[w%len(models)])
		}
	}
}

// TestSummaryMemoWeighsRealSize fills the summary memo with the plans of
// several reports and compares its weight with the live heap it frees
// when dropped, which must be within a third of it: the byte budget bounds
// memory only if entries weigh about what they pin.
func TestSummaryMemoWeighsRealSize(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	small := config.SmallNPU()
	for _, cfg := range []config.NPU{small, small.WithCores(4)} {
		for _, m := range []workload.Model{workload.MobileNet(), workload.NCF()} {
			for _, pol := range Policies() {
				traceModel(t, cfg, trace.NewSummary(), PlanModel(cfg, m), pol, multiCoreLeg, false)
				traceModel(t, cfg, trace.NewSummary(), PlanModel(cfg, m), pol, singleCoreLeg, false)
			}
		}
	}
	weight, entries := summaryMemo.Weight(), summaryMemo.Len()
	live := func() int64 {
		// Two collections: the first only moves pooled engines to the
		// pools' victim caches, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	summaryMemo.Reset()
	freed := before - live()
	t.Logf("%d entries weigh %d bytes; dropping them freed %d", entries, weight, freed)
	if w := int64(weight); 4*freed < 3*w || 3*freed > 4*w {
		t.Fatalf("%d entries weigh %d bytes but pinned %d", entries, weight, freed)
	}
}

// TestSummaryMemoStaysBounded streams reports over many distinct
// configurations through the summary memo with its budget shrunk so the
// stream overflows it: the resident records must never weigh more than
// the budget, entries must be evicted, and the live heap must stay under
// a fixed bound after the stream.
func TestSummaryMemoStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a hundred distinct configurations")
	}
	const (
		configs   = 100
		budget    = 64 << 10
		heapBound = 64 << 20
	)
	ResetCaches()
	defer ResetCaches()
	summaryMemo.SetCap(budget)
	defer summaryMemo.SetCap(summaryMemoBytes)

	plans := func(cfg config.NPU) []LayerPlan { return PlanModel(cfg, workload.NCF()) }
	for i := 0; i < configs; i++ {
		cfg := config.SmallNPU()
		cfg.ArrayRows = 16 + 8*(i%5)
		cfg.ArrayCols = cfg.ArrayRows
		cfg.SPMBytes = int64(256+64*(i/5%8)) << 10
		cfg.DRAMBandwidth = float64(8+4*(i/40)) * 1e9
		traceModel(t, cfg, trace.NewSummary(), plans(cfg), PolPartition, singleCoreLeg, false)
		if w := summaryMemo.Weight(); w > budget {
			t.Fatalf("config %d: resident records weigh %d bytes, over the %d-byte budget", i, w, budget)
		}
	}
	if summaryCounters.Snapshot().Evictions == 0 {
		t.Fatal("the stream never filled the memo: the budget check proved nothing")
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("live heap after %d distinct configurations: %.1f MiB, memo %d entries, %d bytes",
		configs, float64(ms.HeapAlloc)/(1<<20), summaryMemo.Len(), summaryMemo.Weight())
	if ms.HeapAlloc > heapBound {
		t.Errorf("live heap %d bytes after %d distinct configurations, over the %d-byte bound", ms.HeapAlloc, configs, heapBound)
	}
}
