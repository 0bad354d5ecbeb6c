// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (go test -bench=. -benchmem). Each
// BenchmarkFigXX runs the corresponding experiment end to end and reports
// the headline quantity the paper quotes as a custom metric, so the bench
// log doubles as the reproduction record. Microbenchmarks for the
// simulator's hot paths follow at the bottom.
package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	ibench "igosim/internal/bench"
	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/experiments"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/workload"
)

// summaryMetric extracts the first number following the given marker in an
// experiment summary line and reports it on the benchmark. A missing
// marker or an unparsable number fails the benchmark: these metrics are
// the reproduction record, so silently reporting nothing would let a
// reworded summary line go unnoticed.
func summaryMetric(b *testing.B, rep experiments.Report, marker, unit string) {
	b.Helper()
	for _, line := range rep.Summary {
		idx := strings.Index(line, marker)
		if idx < 0 {
			continue
		}
		rest := line[idx+len(marker):]
		var num strings.Builder
		for _, r := range rest {
			if (r >= '0' && r <= '9') || r == '.' || r == '-' || r == '+' {
				num.WriteRune(r)
				continue
			}
			if num.Len() > 0 {
				break
			}
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(num.String(), "+"), 64)
		if err != nil {
			b.Fatalf("%s: summary line %q has no parsable number after marker %q", rep.ID, line, marker)
		}
		b.ReportMetric(v, unit)
		return
	}
	b.Fatalf("%s: no summary line contains marker %q (summaries: %q)", rep.ID, marker, rep.Summary)
}

func BenchmarkFig03Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig03()
		summaryMetric(b, rep, "average backward share ", "bwd_share_%")
	}
}

func BenchmarkFig05DYTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig05()
		summaryMetric(b, rep, "read traffic ", "dY_read_share_%")
	}
}

func BenchmarkFig06IdealReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig06()
		summaryMetric(b, rep, "speedup ", "ideal_reuse_speedup_x")
	}
}

func BenchmarkFig12SingleCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig12()
		summaryMetric(b, rep, "+datapartitioning ", "small_npu_reduction_%")
	}
}

func BenchmarkFig13PerLayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig13()
		summaryMetric(b, rep, "average normalized traffic ", "norm_traffic")
	}
}

func BenchmarkAlg1Selection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Alg1()
	}
}

func BenchmarkFig14MultiCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig14()
		summaryMetric(b, rep, "4 cores: average execution-time reduction ", "quad_core_reduction_%")
	}
}

func BenchmarkFig15Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig15()
		summaryMetric(b, rep, "(37.5 GB/s): average execution-time reduction ", "quarter_bw_reduction_%")
	}
}

func BenchmarkFig16BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig16()
		summaryMetric(b, rep, "batch 32: average execution-time reduction ", "batch32_reduction_%")
	}
}

func BenchmarkFig17GPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Fig17()
		summaryMetric(b, rep, "+datapartitioning ", "gpu_full_stack_reduction_%")
	}
}

func BenchmarkKNNSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.KNNSelection(10)
		summaryMetric(b, rep, "average accuracy ", "knn_accuracy_%")
	}
}

// --- ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationOrderSelectors compares rearrangement under the
// Algorithm 1 listing, the prose rule, the static cost model and the ideal
// simulated selection on the large NPU (ResNet-50).
func BenchmarkAblationOrderSelectors(b *testing.B) {
	cfg := config.LargeNPU()
	m, _ := workload.ByAbbr(workload.ServerSuite(), "res")
	base := core.RunTraining(cfg, sim.Options{}, m, core.PolBaseline)
	selectors := map[string]core.OrderSelector{
		"listing": func(_ config.NPU, p schedule.TileParams) core.Order { return core.SelectOrderLiteral(p.Dims) },
		"prose":   func(_ config.NPU, p schedule.TileParams) core.Order { return core.SelectOrder(p.Dims) },
		"static":  func(c config.NPU, p schedule.TileParams) core.Order { return core.SelectOrderFor(p, c.SPMBytes) },
		"ideal":   func(c config.NPU, p schedule.TileParams) core.Order { return core.BestOrderSimulated(c, p) },
	}
	for name, sel := range selectors {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := core.RunTrainingSelector(cfg, sim.Options{}, m, sel)
				b.ReportMetric(100*core.Improvement(base, run), "reduction_%")
			}
		})
	}
}

// BenchmarkAblationPartitionSchemes pins each partitioning scheme on a
// quad-core NPU for BERT-large, isolating the inter-core distribution
// choice.
func BenchmarkAblationPartitionSchemes(b *testing.B) {
	cfg := config.LargeNPU().WithCores(4)
	m, _ := workload.ByAbbr(workload.ServerSuite(), "bert")
	plans := core.PlanModel(cfg, m)
	for _, scheme := range core.Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var total int64
				for _, lp := range plans {
					if lp.Layer.SkipDX {
						continue
					}
					out := core.RunPartitionedScheme(cfg, sim.Options{}, lp.Params, scheme, cfg.Cores)
					total += out.Cycles
				}
				b.ReportMetric(float64(total), "bwd_cycles")
			}
		})
	}
}

// BenchmarkAblationSharedSPM quantifies the shared-vs-private scratchpad
// placement on the multi-core backward pass (ResNet-50, 4 cores).
func BenchmarkAblationSharedSPM(b *testing.B) {
	cfg := config.LargeNPU().WithCores(4)
	m, _ := workload.ByAbbr(workload.ServerSuite(), "res")
	for i := 0; i < b.N; i++ {
		run := core.RunBackwardOnly(cfg, sim.Options{}, m, core.PolPartition)
		var shared int64
		for _, l := range run.Bwd {
			shared += l.SharedHits
		}
		b.ReportMetric(float64(shared), "cross_core_hits")
	}
}

// --- runner: parallel speedup and memo effectiveness ---

// BenchmarkRunnerSpeedup measures the wall-clock ratio of the same cold
// experiment grid (one baseline training step per server-suite model) at
// -j 1 versus -j 4, reporting it as speedup_x, plus the layer memo's hit
// rate on the cold run. On a 4+ core machine the speedup approaches the
// worker count; on a single core it hovers around 1.0x (scheduling
// overhead only — the work itself is identical).
func BenchmarkRunnerSpeedup(b *testing.B) {
	cfg := config.LargeNPU()
	models := workload.ServerSuite()
	grid := func(j int) time.Duration {
		prev := runner.SetParallelism(j)
		defer runner.SetParallelism(prev)
		core.ResetCaches() // cold: both widths pay full simulation cost
		start := time.Now()
		runner.Map(models, func(m workload.Model) core.ModelRun {
			return core.RunTraining(cfg, sim.Options{}, m, core.PolBaseline)
		})
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		seq := grid(1)
		par := grid(4)
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup_x")
		b.ReportMetric(100*core.LayerMemoStats().HitRate(), "memo_hit_%")
	}
}

// BenchmarkSweepPruned runs the canonical pruned design-space sweep
// (internal/bench.SweepSpace: a dense-bandwidth, two-policy grid) end to
// end, reporting throughput in points/s and the fraction of points the
// analytic pruner skipped. cmd/benchjson tracks the same numbers as
// BENCH_sweep.json.
func BenchmarkSweepPruned(b *testing.B) {
	ibench.SweepPruned()(b)
}

// --- microbenchmarks: simulator hot paths ---

// BenchmarkEngineStep times the engine's per-op step: one layer's backward
// program, lowered once, executed from a reset engine per iteration.
func BenchmarkEngineStep(b *testing.B) {
	cfg := config.LargeNPU()
	p := core.LayerParams(tensor.Dims{M: 1024, K: 1024, N: 1024}, 1, cfg)
	prog := schedule.Compile(schedule.BaselineBackward(p))
	e := sim.NewCompiledEngine(cfg, sim.Options{})
	e.Bind(&prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Execute()
	}
	b.ReportMetric(float64(len(prog.Code)), "ops/run")
}

func BenchmarkScheduleGeneration(b *testing.B) {
	cfg := config.LargeNPU()
	p := core.LayerParams(tensor.Dims{M: 4096, K: 1024, N: 4096}, 1, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.InterleaveDXMajorChunked(p, 4)
	}
}

func BenchmarkChooseTiling(b *testing.B) {
	cfg := config.LargeNPU()
	d := tensor.Dims{M: 25088, K: 576, N: 64}
	for i := 0; i < b.N; i++ {
		_ = schedule.ChooseTiling(d, cfg)
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	var samples []core.SchemeSample
	for i := 1; i <= 64; i++ {
		samples = append(samples, core.SchemeSample{
			Dims: tensor.Dims{M: 64 * i, K: 64 + i, N: 512 - i},
			Best: core.Schemes()[i%3],
		})
	}
	sel, err := core.TrainSchemeSelector(samples, core.DefaultSchemeK)
	if err != nil {
		b.Fatal(err)
	}
	d := tensor.Dims{M: 777, K: 99, N: 303}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sel.Predict(d)
	}
}

func BenchmarkNumericalValidation(b *testing.B) {
	d := tensor.Dims{M: 32, K: 24, N: 28}
	tl := schedule.Tiling{Tm: 8, Tk: 6, Tn: 7}
	p := schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}
	ops := core.InterleaveDXMajor(p).Ops
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.CheckEquivalence(d, tl, ops, 1e-8); err != nil {
			b.Fatal(err)
		}
	}
}
