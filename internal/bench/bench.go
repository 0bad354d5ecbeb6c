// Package bench defines the repo's end-to-end performance workload — the
// ResNet-50 backward pass on the large NPU configuration — as reusable
// *testing.B bodies. The same functions back BenchmarkCompiledEngine in
// internal/sim (run via `go test -bench`) and cmd/benchjson (which runs
// them through testing.Benchmark and writes BENCH_compiled.json), so the
// numbers tracked across PRs are the numbers the benchmark suite measures.
package bench

import (
	"fmt"
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/refmodel"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// Workload is one benchmarkable model: per-layer kernel sets plus the
// simulated DRAM traffic of a full pass (the b.SetBytes denominator).
type Workload struct {
	Cfg   config.NPU
	Model [][]schedule.Schedule
	Bytes int64
}

// ResNet50Backward lowers the acceptance workload: every ResNet-50 layer's
// conventional dX and dW kernels on the large NPU configuration.
func ResNet50Backward() Workload {
	cfg := config.LargeNPU()
	m := workload.ResNet50()
	layers := m.Layers(cfg.Batch)
	w := Workload{Cfg: cfg, Model: make([][]schedule.Schedule, 0, len(layers))}
	for li, l := range layers {
		p := core.LayerParams(l.Dims, uint16(li+1), cfg)
		kernels := []schedule.Schedule{
			{Name: "dx", Ops: schedule.BaselineDX(p)},
			{Name: "dw", Ops: schedule.BaselineDW(p)},
		}
		if l.SkipDX {
			kernels = kernels[1:]
		}
		w.Model = append(w.Model, kernels)
	}
	for _, kernels := range w.Model {
		r := sim.RunSchedules(cfg, sim.Options{}, kernels...)
		w.Bytes += r.Traffic.TotalRead() + r.Traffic.TotalWrite()
	}
	return w
}

// Verify holds the engine to the refmodel oracle on every layer before its
// speed is worth measuring.
func (w Workload) Verify() error {
	for i, kernels := range w.Model {
		got := sim.RunSchedules(w.Cfg, sim.Options{}, kernels...)
		want := refmodel.ReplaySchedules(w.Cfg, refmodel.Options{}, kernels...)
		if err := refmodel.Compare(got, want); err != nil {
			return fmt.Errorf("bench: layer %d: %w", i, err)
		}
	}
	return nil
}

// Pass and Steady each run one untimed warm pass before measuring, so the
// pooled engines, compilers and scratch buffers have grown to the
// workload's size: allocs/op then counts the pass's own allocations, the
// same number in every process even at -benchtime=1x.

// Pass returns a benchmark body measuring full passes (lower + execute)
// through RunSchedules.
func (w Workload) Pass() func(*testing.B) {
	return func(b *testing.B) {
		pass := func() {
			for _, kernels := range w.Model {
				if r := sim.RunSchedules(w.Cfg, sim.Options{}, kernels...); r.Ops == 0 {
					b.Fatal("empty result")
				}
			}
		}
		pass()
		b.SetBytes(w.Bytes) // simulated DRAM bytes per full backward pass
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	}
}

// Steady returns a benchmark body for the compiled steady state: programs
// lowered once outside the loop, execution only inside it.
func (w Workload) Steady() func(*testing.B) {
	return func(b *testing.B) {
		progs := make([]*schedule.Program, len(w.Model))
		for i, kernels := range w.Model {
			progs[i] = sim.CompileSchedules(kernels...)
		}
		e := sim.NewCompiledEngine(w.Cfg, sim.Options{})
		pass := func() {
			for pi := range progs {
				e.Reset()
				e.RunProgram(progs[pi])
				if e.Result().Ops == 0 {
					b.Fatal("empty result")
				}
			}
		}
		pass()
		b.SetBytes(w.Bytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
	}
}
