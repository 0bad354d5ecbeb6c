// Command benchjson runs the end-to-end engine benchmarks (internal/bench,
// the same bodies behind BenchmarkCompiledEngine) through testing.Benchmark
// and writes a machine-readable summary so the perf trajectory is tracked
// across PRs. The output records, per benchmark, ns/op, allocs/op and
// simulated-DRAM MB/s: full passes (lower + execute) and the steady state
// (programs lowered once).
//
// Usage:
//
//	benchjson [-benchtime 1x] [-o BENCH_compiled.json]
//
// -benchtime uses the testing package's syntax (a duration like 2s, or an
// iteration count like 1x). The CI default of one iteration proves the
// harness and refreshes the artifact cheaply; use a duration for numbers
// stable enough to quote.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"igosim/internal/bench"
	"igosim/internal/core"
	"igosim/internal/serve"
	"igosim/internal/serve/loadtest"
	"igosim/internal/sim"
)

type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	MBPerSec    float64 `json:"mb_s"`
}

type report struct {
	Workload   string  `json:"workload"`
	Benchmarks []entry `json:"benchmarks"`
}

func main() {
	testing.Init()
	benchtime := flag.String("benchtime", "1x", "per-benchmark budget, testing syntax (duration or Nx iterations)")
	out := flag.String("o", "BENCH_compiled.json", "output path (empty = skip the engine benchmarks)")
	sweepOut := flag.String("sweep-o", "BENCH_sweep.json", "sweep summary output path (empty = skip the sweep)")
	serveOut := flag.String("serve-o", "BENCH_serve.json", "serve load-test output path (empty = skip the load test)")
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fatal(fmt.Errorf("bad -benchtime %q: %w", *benchtime, err))
	}
	if *out == "" {
		if *sweepOut != "" {
			if err := writeSweep(*sweepOut); err != nil {
				fatal(err)
			}
		}
		if *serveOut != "" {
			if err := writeServe(*serveOut); err != nil {
				fatal(err)
			}
		}
		return
	}

	w := bench.ResNet50Backward()
	if err := w.Verify(); err != nil {
		fatal(err)
	}

	rep := report{Workload: "ResNet-50 backward, LargeNPU"}
	for _, b := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"CompiledEngine/compiled", w.Pass()},
		{"CompiledEngine/steady", w.Steady()},
	} {
		r := testing.Benchmark(b.fn)
		e := entry{Name: b.name, NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp()}
		if secs := r.T.Seconds(); secs > 0 {
			e.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / secs
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Printf("%-28s %14.0f ns/op %8d allocs/op %10.1f MB/s\n", e.Name, e.NsPerOp, e.AllocsPerOp, e.MBPerSec)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *sweepOut != "" {
		if err := writeSweep(*sweepOut); err != nil {
			fatal(err)
		}
	}
	if *serveOut != "" {
		if err := writeServe(*serveOut); err != nil {
			fatal(err)
		}
	}
}

// writeServe drives an in-process igoserved instance with the canonical
// fixed-seed load test and records the result — exact counts and the
// response-body digest (gated at zero tolerance) plus p50/p99 latency and
// throughput (gated loosely as wall time) — tracked across PRs as
// BENCH_serve.json.
//
//lint:walldomain client-observed latency and throughput are the measurement itself
func writeServe(path string) error {
	core.ResetCaches()
	defer core.ResetCaches()
	s := serve.New(serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := loadtest.Run(loadtest.Options{URL: ts.URL, Client: ts.Client()})
	if err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("serve load test: %d of %d requests failed", res.Errors, res.Requests)
	}
	res.ResidencyHitRate = sim.ResolvedCacheStats().HitRate()
	fmt.Printf("%-28s %6d requests %4d distinct %5.1f%% hit rate %5.1f%% residency  p50 %.0fus  p99 %.0fus  %.1f req/s\n",
		"ServeLoadtest", res.Requests, res.DistinctKeys, 100*res.HitRate, 100*res.ResidencyHitRate,
		res.P50Micros, res.P99Micros, res.RPS)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// writeSweep runs the canonical pruned design-space sweep once and records
// its throughput and pruned fraction — the numbers BenchmarkSweepPruned
// reports — with its resolve/replay split and the bytes its traces pin,
// tracked across PRs as BENCH_sweep.json.
//
//lint:walldomain benchmark wall time is the measurement itself
func writeSweep(path string) error {
	start := time.Now()
	res, err := bench.RunSweep(0)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	res.WallSeconds = wall
	if wall > 0 {
		res.PointsPerSec = float64(res.Points) / wall
	}
	fmt.Printf("%-28s %6d points %6d simulated %5.1f%% pruned %8.1f points/s  %d resolve %d replay (%.1fx reuse) %d trace bytes\n",
		"SweepPruned", res.Points, res.Simulated, 100*res.PrunedFrac, res.PointsPerSec,
		res.Resolutions, res.Replays, res.ReuseRatio, res.TraceBytes)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
