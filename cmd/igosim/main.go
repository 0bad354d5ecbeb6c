// Command igosim simulates one training step of a DNN workload on an NPU
// configuration under a chosen interleaved-gradient-order policy, printing
// per-layer and total cycles and DRAM traffic.
//
// Usage:
//
//	igosim -config large -model res -policy partition -cores 1 [-layers]
package main

import (
	"flag"
	"fmt"
	"os"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dram"
	"igosim/internal/energy"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/sim"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

func main() {
	var (
		cfgName    = flag.String("config", "large", "NPU config: small, large, gpu")
		modelName  = flag.String("model", "res", "model abbreviation from Table 4 (rcnn goo ncf res dlrm mob yolo bert T5) or 'all'")
		polName    = flag.String("policy", "partition", "policy: baseline, interleave, rearrange, partition")
		cores      = flag.Int("cores", 1, "number of NPU cores (large config only)")
		bandwidth  = flag.Float64("bw", 0, "override per-core DRAM bandwidth in GB/s (0 = preset)")
		batch      = flag.Int("batch", 0, "override per-core batch size (0 = preset)")
		perLayer   = flag.Bool("layers", false, "print per-layer breakdown")
		withNRG    = flag.Bool("energy", false, "print an energy estimate (45nm coefficients)")
		jobs       = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS; results are identical at any width)")
		traceOut   = flag.String("trace", "", "write Chrome trace-event JSON of the run to this file (view in Perfetto)")
		report     = flag.Bool("report", false, "print the trace-derived report: stall attribution, SPM occupancy, reuse distances")
		manifest   = flag.String("manifest", "", "write the deterministic run manifest (JSON) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	stopProf, err := metrics.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	runner.SetParallelism(*jobs)
	stopTrace := trace.StartCLI(*traceOut, *report)

	cfg, suite, err := resolveConfig(*cfgName)
	if err != nil {
		fatal(err)
	}
	if *cores > 1 {
		cfg = cfg.WithCores(*cores)
	}
	if *bandwidth > 0 {
		cfg = cfg.WithBandwidth(*bandwidth * 1e9)
	}
	if *batch > 0 {
		cfg = cfg.WithBatch(*batch)
	}
	pol, err := resolvePolicy(*polName)
	if err != nil {
		fatal(err)
	}

	models := suite
	if *modelName != "all" {
		m, err := workload.ByAbbr(suite, *modelName)
		if err != nil {
			fatal(err)
		}
		models = []workload.Model{m}
	}

	fmt.Printf("config %s: %dx(%dx%d PE), %.1f GB/s/core, %s SPM/core, batch %d/core\n\n",
		cfg.Name, cfg.Cores, cfg.ArrayRows, cfg.ArrayCols, cfg.DRAMBandwidth/1e9,
		fmtBytes(cfg.SPMBytes), cfg.Batch)

	var workloads []metrics.WorkloadResult
	for _, m := range models {
		base := core.RunTraining(cfg, sim.Options{}, m, core.PolBaseline)
		run := base
		if pol != core.PolBaseline {
			run = core.RunTraining(cfg, sim.Options{}, m, pol)
		}
		if *manifest != "" {
			workloads = append(workloads, core.ManifestWorkload(cfg, base, run))
		}
		fmt.Printf("%-5s  policy=%-17s fwd %12d cyc   bwd %12d cyc   total %12d cyc   (%.3f ms)\n",
			m.Abbr, run.Policy, run.FwdCycles, run.BwdCycles, run.TotalCycles(),
			run.Seconds(cfg)*1e3)
		if pol != core.PolBaseline {
			fmt.Printf("       vs baseline: %+.1f%% execution time reduction (baseline %d cyc)\n",
				100*core.Improvement(base, run), base.TotalCycles())
		}
		fmt.Printf("       bwd traffic: %s total | dY %s (%.1f%% of reads) | spills(acc) %s\n",
			fmtBytes(run.BwdTraffic.Total()),
			fmtBytes(run.BwdTraffic.Read[dram.ClassDY]),
			100*run.BwdTraffic.ReadShare(dram.ClassDY),
			fmtBytes(run.BwdTraffic.Read[dram.ClassAcc]+run.BwdTraffic.Write[dram.ClassAcc]))
		if *withNRG {
			em := energy.Default45nm()
			b := em.TrainingStep(run)
			fmt.Printf("       energy: %.2f mJ/step (DRAM %.2f, SPM %.2f, compute %.2f, static %.2f)",
				b.Total()*1e3, b.DRAM*1e3, b.SPM*1e3, b.Compute*1e3, b.Static*1e3)
			if pol != core.PolBaseline {
				fmt.Printf(" | %.1f%% saved vs baseline", 100*em.Savings(base, run))
			}
			fmt.Println()
		}
		if *perLayer {
			printLayers(base, run)
		}
		fmt.Println()
	}
	// Capture the trace digest before stopTrace uninstalls the sink.
	var traceSum *metrics.TraceSummary
	if sink := trace.Active(); sink != nil {
		ts := sink.Metrics().ManifestSummary()
		traceSum = &ts
	}
	if err := stopTrace(); err != nil {
		fatal(err)
	}
	if *manifest != "" {
		if err := writeManifest(*manifest, cfg, models, *polName, workloads, traceSum); err != nil {
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// writeManifest emits the run's canonical record: fingerprint over
// everything that determines the outcome, per-workload cycle/traffic
// results, the derived cache report and the cycle-domain registry
// snapshot. Byte-identical at any -j (see make manifest-check).
func writeManifest(path string, cfg config.NPU, models []workload.Model, policy string, workloads []metrics.WorkloadResult, traceSum *metrics.TraceSummary) error {
	m := metrics.NewManifest("igosim")
	names := make([]string, len(models))
	for i, w := range models {
		names[i] = w.Abbr
	}
	if err := m.SetFingerprint(struct {
		Tool   string     `json:"tool"`
		Config config.NPU `json:"config"`
		Models []string   `json:"models"`
		Policy string     `json:"policy"`
	}{"igosim", cfg, names, policy}); err != nil {
		return err
	}
	m.Config = &cfg
	m.Workloads = workloads
	m.Trace = traceSum
	m.Finalize(metrics.Default())
	return m.WriteFile(path)
}

func printLayers(base, run core.ModelRun) {
	fmt.Printf("       %-22s %14s %14s %8s  %-20s %s\n",
		"layer (M,K,N)", "base bwd cyc", "bwd cyc", "speedup", "order", "scheme")
	for i := range run.Bwd {
		b, r := base.Bwd[i], run.Bwd[i]
		sp := 1.0
		if r.Cycles > 0 {
			sp = float64(b.Cycles) / float64(r.Cycles)
		}
		fmt.Printf("       %-22s %14d %14d %7.2fx  %-20s %s/%d\n",
			fmt.Sprintf("%s(%d,%d,%d)", r.Name, r.Dims.M, r.Dims.K, r.Dims.N),
			b.Cycles, r.Cycles, sp, r.Order, r.Scheme, r.Parts)
	}
}

func resolveConfig(name string) (config.NPU, []workload.Model, error) {
	switch name {
	case "small", "edge":
		return config.SmallNPU(), workload.EdgeSuite(), nil
	case "large", "server":
		return config.LargeNPU(), workload.ServerSuite(), nil
	case "gpu":
		return config.GPULike(), workload.EdgeSuite(), nil
	default:
		return config.NPU{}, nil, fmt.Errorf("unknown config %q (want small, large, gpu)", name)
	}
}

func resolvePolicy(name string) (core.Policy, error) {
	switch name {
	case "baseline":
		return core.PolBaseline, nil
	case "interleave", "interleaving":
		return core.PolInterleave, nil
	case "rearrange", "rearrangement":
		return core.PolRearrange, nil
	case "partition", "partitioning":
		return core.PolPartition, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", name)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "igosim:", err)
	os.Exit(1)
}
