package core

import (
	"testing"

	"igosim/internal/config"
	"igosim/internal/sim"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

// Benchmark results land here so the compiler keeps the measured calls.
var (
	shapeCodeSink *shapeCode
	reportSink    string
)

// BenchmarkLowerShapes times the cold lowering of one GPU-study shape,
// T5's vocabulary projection on config.GPULike (128 512 ops per gradient
// GEMM): the shape's backward op table, built as every program over it is.
func BenchmarkLowerShapes(b *testing.B) {
	_, ps := oversizedParams(b)
	p := ps[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shapeCodeSink = lowerShapes(p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*p.OpCount()), "ns/lowered-op")
}

// BenchmarkTracedReport times the work behind a serve trace report: a
// traced forward and partition-policy backward pass of every layer of one
// edge model into a summary sink, as serve's traceReport runs them. cold
// drops every cache before each report, so it pays tuning, lowering and
// the traced simulations; warm repeats the report on warm caches, as a
// server answering the same report again does.
func BenchmarkTracedReport(b *testing.B) {
	cfg := config.SmallNPU()
	plans := PlanModel(cfg, workload.MobileNet())
	report := func() string {
		sink := trace.NewSummary()
		for _, lp := range plans {
			label := "mob/" + lp.Layer.Name
			RunForward(cfg, sim.Options{Trace: sink, TraceLabel: label + " fwd"}, lp.Params)
			RunBackward(cfg, sim.Options{Trace: sink, TraceLabel: label + " bwd"}, lp.Params, PolPartition, lp.Layer.SkipDX)
		}
		return sink.Metrics().Report()
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ResetCaches()
			reportSink = report()
		}
		b.StopTimer()
		ResetCaches()
	})
	b.Run("warm", func(b *testing.B) {
		ResetCaches()
		report()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reportSink = report()
		}
		b.StopTimer()
		ResetCaches()
	})
}
