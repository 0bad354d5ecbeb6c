// Package igo is the public API of igosim: a simulator and schedule
// transformer reproducing "Improving Data Reuse in NPU On-chip Memory with
// Interleaved Gradient Order for DNN Training" (MICRO 2023).
//
// The package curates the library surface a downstream user needs:
//
//   - NPU configurations (the paper's Table 3 presets plus custom configs);
//   - the Table 4 model zoo, lowered to per-layer GEMM dimensions;
//   - the four policy levels — Baseline, Interleave, Rearrange,
//     Partition — applied to a model's training step;
//   - per-layer control for schedule research: explicit access orders,
//     partitioning schemes, and the KNN scheme selector;
//   - the experiment harnesses that regenerate every figure of the paper.
//
// # Quick start
//
//	cfg := igo.LargeNPU()
//	model, _ := igo.ModelByName(igo.ServerSuite(), "res")
//	base := igo.Train(cfg, model, igo.Baseline)
//	fast := igo.Train(cfg, model, igo.Partition)
//	fmt.Printf("execution time reduced %.1f%%\n", 100*igo.Improvement(base, fast))
//
// Every simulation runs on one engine: schedules are lowered once into
// dense compiled programs and executed against an array-backed scratchpad
// model, single- or multi-core. An independent reference model checks that
// engine counter for counter; SelfCheck runs a slice of that check.
//
// All heavy lifting lives in internal packages; this package only names
// the supported surface.
package igo

import (
	"io"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/experiments"
	"igosim/internal/runner"
	"igosim/internal/sim"
	"igosim/internal/stats"
	"igosim/internal/tensor"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

// Config describes a simulated NPU (PE array, scratchpad, DRAM, cores).
// Construct one with SmallNPU/LargeNPU/GPULike and adjust via the With*
// methods, or fill the struct directly and call Validate.
type Config = config.NPU

// Dataflow selects the systolic-array mapping of a Config.
type Dataflow = config.Dataflow

// Dataflow mappings.
const (
	OutputStationary = config.OutputStationary
	WeightStationary = config.WeightStationary
)

// SmallNPU returns the paper's edge-class configuration (Table 3):
// 45x45 PEs, 1 MB SPM, 22 GB/s, 1 GHz, batch 4.
func SmallNPU() Config { return config.SmallNPU() }

// LargeNPU returns the paper's server-class configuration (Table 3):
// 128x128 PEs, 8 MB SPM and 150 GB/s per core, 1.05 GHz, batch 8.
func LargeNPU() Config { return config.LargeNPU() }

// GPULike returns the shared-memory-sized configuration backing the
// paper's Figure 17 GPU validation study.
func GPULike() Config { return config.GPULike() }

// Dims are the dimensions of one layer's forward GEMM:
// X(M,K) x W(K,N) -> Y(M,N).
type Dims = tensor.Dims

// Layer is one trainable layer of a workload, lowered to GEMM dimensions.
type Layer = workload.Layer

// Model is one Table 4 workload.
type Model = workload.Model

// EdgeSuite returns the nine workloads with their edge-sized variants.
func EdgeSuite() []Model { return workload.EdgeSuite() }

// ServerSuite returns the nine workloads with their server-sized variants.
func ServerSuite() []Model { return workload.ServerSuite() }

// ModelByName finds a model in a suite by its Table 4 abbreviation
// ("rcnn", "goo", "ncf", "res", "dlrm", "mob", "yolo", "bert", "T5").
func ModelByName(suite []Model, abbr string) (Model, error) {
	return workload.ByAbbr(suite, abbr)
}

// Policy selects how much of the interleaved-gradient-order stack is
// applied to the backward pass. Levels are cumulative.
type Policy = core.Policy

// Policy levels, in Figure 12 order.
const (
	Baseline   = core.PolBaseline
	Interleave = core.PolInterleave
	Rearrange  = core.PolRearrange
	Partition  = core.PolPartition
)

// Order is an interleaved access order (Figure 10).
type Order = core.Order

// Access orders.
const (
	OnlyInterleave = core.OnlyInterleave
	DXMajor        = core.DXMajor
	DWMajor        = core.DWMajor
)

// Scheme is a data-partitioning scheme (Figure 11).
type Scheme = core.Scheme

// Partitioning schemes.
const (
	NoPartition   = core.NoPartition
	WeightSharing = core.WeightSharing
	DYSharing     = core.DYSharing
	IfmapSharing  = core.IfmapSharing
)

// ModelRun is one simulated training step (forward + backward).
type ModelRun = core.ModelRun

// LayerOutcome is the per-layer simulation result inside a ModelRun.
type LayerOutcome = core.LayerOutcome

// Train simulates one training step of the model under the given policy.
// Multi-core configurations (cfg.Cores > 1) are handled transparently:
// the backward pass is distributed per the policy's partitioning rules.
func Train(cfg Config, m Model, pol Policy) ModelRun {
	return core.RunTraining(cfg, sim.Options{}, m, pol)
}

// TrainBackwardOnly simulates just the backward pass (the Figure 17
// measurement mode).
func TrainBackwardOnly(cfg Config, m Model, pol Policy) ModelRun {
	return core.RunBackwardOnly(cfg, sim.Options{}, m, pol)
}

// Improvement returns the fractional execution-time reduction of run
// against base — the paper's headline metric.
func Improvement(base, run ModelRun) float64 { return core.Improvement(base, run) }

// SelectOrder applies the paper's Algorithm 1 (prose rule) to a layer's
// dimensions: nearly-square computations keep plain interleaving, skewed
// ones pick the major order that carries the smaller gradient.
func SelectOrder(d Dims) Order { return core.SelectOrder(d) }

// Report is one regenerated evaluation artifact (a figure or study).
type Report = experiments.Report

// Experiment regenerates one of the paper's evaluation artifacts by id:
// fig3 fig5 fig6 fig12 fig13 fig14 fig15 fig16 fig17 alg1 knn.
func Experiment(id string) (Report, error) { return experiments.ByID(id) }

// Experiments lists the available experiment ids in paper order.
func Experiments() []string { return experiments.IDs() }

// Parallelism sets the number of worker goroutines used by Train,
// TrainBackwardOnly, Experiment and the rest of the simulation surface,
// returning the previous setting. n <= 0 restores the default
// (GOMAXPROCS). Results are bit-identical at every setting: the engine
// fans work out by index and reassembles it in order.
func Parallelism(n int) int { return runner.SetParallelism(n) }

// CacheStats reports the hit/miss counters of the simulator's memo caches
// (layer simulations and order-tuning results), one line per cache. Useful
// when judging whether a sweep benefits from shape sharing.
func CacheStats() []string {
	snaps := stats.CacheReport()
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = s.String()
	}
	return out
}

// ResetCaches clears the simulator's memo caches and the hit/miss counters
// of every registered cache — mainly for benchmarking cold-start behaviour
// and for isolating back-to-back measurement runs.
func ResetCaches() { core.ResetCaches() }

// TraceMetrics is the derived summary of a traced run: stall-cycle
// attribution, SPM occupancy high-water marks, per-tensor-class reuse
// distances, memo hits and runner task spans. Render it with Report().
type TraceMetrics = trace.Metrics

// WithTrace runs fn with cycle-level event tracing enabled process-wide:
// every simulation started inside fn — Train, Experiment, anything built on
// the engine — emits tile-op spans, SPM occupancy samples and phase spans
// into one sink. When w is non-nil the collected events are written to it as
// Chrome trace-event JSON (loadable in Perfetto or chrome://tracing); the
// returned TraceMetrics summarises the run either way.
//
// Tracing never changes simulation results; it only records them. Nested or
// concurrent WithTrace calls are not supported (the sink is process-wide):
// the inner call would capture the outer call's events.
func WithTrace(w io.Writer, fn func()) (TraceMetrics, error) {
	sink := trace.New()
	prev := trace.SetActive(sink)
	defer trace.SetActive(prev)
	fn()
	if err := sink.Check(); err != nil {
		return sink.Metrics(), err
	}
	if w != nil {
		if err := sink.WriteJSON(w); err != nil {
			return sink.Metrics(), err
		}
	}
	return sink.Metrics(), nil
}
