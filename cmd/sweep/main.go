// Command sweep explores the NPU design space: it measures the interleaved
// gradient order's benefit over a grid of DRAM bandwidths, scratchpad sizes,
// core counts, tiling caps and schedule policies, for any zoo model.
// Architects use it to find where on-chip reuse pays (Section 6.4's trend
// study, generalized to millions of points).
//
// The sweep is built on internal/dse: an analytic pruner skips points whose
// lower bounds prove them dominated by an already-simulated point, shards
// checkpoint to disk for kill+resume, and the Pareto frontier over
// (cycles, traffic, reduction) is extracted at the end. Results are
// byte-identical across reruns, worker counts and resumes.
//
// Usage:
//
//	sweep -model res -bw 300,150,75,37.5 -spm 4,8,16 -cores 1
//	sweep -model bert-tiny -suite edge -bw 20:320:250:log -spm 0.5:16:200:log \
//	      -cores 1,2,4,8 -tkcap 0,32,64,128,256 -checkpoint /tmp/ck -csv rows.csv
//	sweep -model res -resume -checkpoint /tmp/ck -csv rows.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"igosim/internal/bench"
	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dse"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/sim"
	"igosim/internal/stats"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

// main's clock reads feed the progress line and the points/s summary on
// stderr; sweep results and manifests never see them.
//
//lint:walldomain progress throughput and the summary line are host-time by nature
func main() {
	var (
		modelName = flag.String("model", "res", "model abbreviation (Table 4 or variant: bert-base, T5-base, yolo-s, res18)")
		suiteName = flag.String("suite", "server", "zoo suite for size variants: edge or server")
		npuName   = flag.String("npu", "large", "base NPU preset: small, large or gpu")
		bwList    = flag.String("bw", "300,150,75,37.5", "per-core DRAM bandwidths to sweep, GB/s (comma list and/or lo:hi:n[:log] ranges)")
		spmList   = flag.String("spm", "8", "per-core SPM sizes to sweep, MiB (comma list and/or lo:hi:n[:log] ranges)")
		coreList  = flag.String("cores", "1", "core counts to sweep (integers)")
		tkList    = flag.String("tkcap", "0", "Tk tiling caps to sweep (integers; 0 = engine default)")
		polList   = flag.String("policy", "partition", "schedule policies to sweep: baseline, interleave, rearrange, partition, all")

		prune     = flag.Bool("prune", true, "skip points whose analytic bounds prove them dominated by a simulated point")
		eps       = flag.Float64("eps", -1, "dominance relaxation on the cycle and traffic legs (negative = default)")
		epsRed    = flag.Float64("eps-red", -1, "dominance relaxation on the reduction leg, percentage points/100 (negative = default)")
		budget    = flag.Int("budget", 0, "simulate at most N points, spent where the analytic model is least certain (0 = unlimited)")
		shardSize = flag.Int("shard-size", 0, "points per checkpoint shard (0 = default)")
		waveSize  = flag.Int("wave-size", 0, "points per pruning wave (0 = default)")
		ckptDir   = flag.String("checkpoint", "", "directory for per-shard checkpoint files")
		resume    = flag.Bool("resume", false, "load completed shards from -checkpoint instead of recomputing them")
		maxShards = flag.Int("max-shards", 0, "stop after N shards (for checkpoint testing; 0 = run all)")

		canonical  = flag.Bool("canonical", false, "sweep the canonical benchmark grid (BERT-tiny on the small NPU, 240 points; overrides the model and axis flags)")
		resCache   = flag.String("residency-cache", "", "MiB of resolved residency traces the two-phase executor may retain (0 disables replay entirely; empty = engine default, 128)")
		replaySkew = flag.Int64("replay-skew", 0, "add N cycles to every replayed op's compute time (fault injection for make replay-check; leave at 0)")

		csvPath     = flag.String("csv", "", "write all rows as CSV to this path (\"-\" = stdout)")
		jobs        = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		traceOut    = flag.String("trace", "", "write Chrome trace-event JSON of the run to this file (view in Perfetto)")
		report      = flag.Bool("report", false, "print the trace-derived report: stall attribution, SPM occupancy, reuse distances")
		manifest    = flag.String("manifest", "", "write the deterministic run manifest (JSON, prune efficacy) to this file")
		metricsAddr = flag.String("metrics-http", "", "serve live metrics (Prometheus text / ?format=json) on this address, e.g. :9090")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	stopProf, err := metrics.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	if *resCache != "" {
		// Strict like the integer axes: "512.5 MiB" is a config error, not
		// something to truncate silently.
		n, err := strconv.Atoi(strings.TrimSpace(*resCache))
		if err != nil {
			fatal(fmt.Errorf("-residency-cache: %q is not an integer (this knob takes a whole number of MiB)", *resCache))
		}
		if n < 0 || n > math.MaxInt>>20 {
			fatal(fmt.Errorf("-residency-cache: %d is out of range (want 0 to disable, or a positive MiB budget)", n))
		}
		sim.SetResidencyCacheBytes(n << 20)
	}
	sim.SetReplaySkew(*replaySkew)
	runner.SetParallelism(*jobs)
	if *metricsAddr != "" {
		// Live scraping wants latency histograms too, so turn wall-clock
		// collection on for the run; the server dies with the process.
		metrics.SetTiming(true)
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: metrics-http:", err)
			}
		}()
	}
	stopTrace := trace.StartCLI(*traceOut, *report)

	var space dse.Space
	if *canonical {
		// The canonical benchmark grid (BENCH_sweep.json, make
		// replay-check): one fixed space shared with internal/bench so CLI
		// checks and recorded numbers describe the same work.
		space = bench.SweepSpace()
	} else {
		model, err := workload.FindModel(*suiteName, *modelName)
		if err != nil {
			fatal(err)
		}
		base, ok := config.Preset(*npuName)
		if !ok {
			fatal(fmt.Errorf("unknown -npu preset %q (want small, large or gpu)", *npuName))
		}
		space = dse.Space{Model: model, Base: base}
		if space.BWGBs, err = parseFloatAxis("-bw", *bwList); err != nil {
			fatal(err)
		}
		if space.SPMMiB, err = parseFloatAxis("-spm", *spmList); err != nil {
			fatal(err)
		}
		// Core counts and tiling caps are integer axes: "2.7 cores" is a
		// config error, not something to truncate silently.
		if space.Cores, err = parseIntAxis("-cores", *coreList, 1); err != nil {
			fatal(err)
		}
		if space.TkCaps, err = parseIntAxis("-tkcap", *tkList, 0); err != nil {
			fatal(err)
		}
		if space.Policies, err = parsePolicies(*polList); err != nil {
			fatal(err)
		}
	}
	model := space.Model

	opts := dse.Options{
		Prune: *prune, Eps: *eps, EpsRed: *epsRed, Budget: *budget,
		ShardSize: *shardSize, WaveSize: *waveSize,
		CheckpointDir: *ckptDir, Resume: *resume, MaxShards: *maxShards,
	}
	total := space.Size()
	start := time.Now()
	if total >= 10_000 {
		// Live progress is sourced from the metrics registry: the prune
		// counter is Cycle-domain (deterministic), while throughput and the
		// ETA are wall-clock derivations for the human watching stderr.
		prunedAt := metrics.Value("dse_points_total", "pruned")
		phasesAt := sim.ResolvedPhaseStats()
		opts.Progress = func(done, total int) {
			pruned := metrics.Value("dse_points_total", "pruned") - prunedAt
			phases := sim.ResolvedPhaseStats()
			elapsed := time.Since(start)
			rate := float64(done) / elapsed.Seconds()
			eta := time.Duration(float64(total-done) / rate * float64(time.Second))
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d points (%.1f%%) | pruned %.1f%% | %d resolve %d replay (%.1f%% residency hits) | %.0f points/s | ETA %s",
				done, total, 100*float64(done)/float64(total),
				100*frac(int(pruned), done),
				phases.Resolutions-phasesAt.Resolutions, phases.Replays-phasesAt.Replays,
				100*sim.ResolvedCacheStats().HitRate(), rate, eta.Round(time.Second))
			if done >= total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	res, err := dse.Run(space, opts)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if *csvPath != "" {
		if err := writeCSV(*csvPath, space, res.Rows); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("design-space sweep: %s (%s), %d points\n", model.Name, model.Abbr, total)
	if !res.Complete {
		fmt.Printf("stopped after -max-shards: %d of %d points processed\n", len(res.Rows), total)
	}
	// Row table only for small grids; a million-point sweep goes to -csv.
	if len(res.Rows) <= 200 && *csvPath != "-" {
		fmt.Println()
		fmt.Print(rowTable(space, res.Rows))
	}
	done := len(res.Rows)
	fmt.Printf("\nsimulated %d | pruned %d (%.1f%%) | skipped %d | over budget %d\n",
		res.Simulated, res.Pruned, 100*frac(res.Pruned, done), res.Skipped, res.Budgeted)
	fmt.Printf("wall %.2fs, %.0f points/s\n", wall.Seconds(), float64(done)/wall.Seconds())
	ph := sim.ResolvedPhaseStats()
	fmt.Printf("two-phase executor: %d resolutions, %d replays (%.1f%% residency-cache hits)\n",
		ph.Resolutions, ph.Replays, 100*sim.ResolvedCacheStats().HitRate())

	if len(res.Frontier) > 0 {
		fmt.Printf("\nPareto frontier (%d points; minimize cycles and traffic, maximize reduction):\n", len(res.Frontier))
		t := stats.NewTable("cores", "bw GB/s", "spm MiB", "tkcap", "policy", "igo cycles", "traffic MiB", "reduction%")
		for _, idx := range res.Frontier {
			r := res.Rows[idx]
			p := space.Point(r.Index)
			t.AddRowF(
				"%d", p.Cores,
				"%.4g", p.BWGB,
				"%.4g", p.SPMMiB,
				"%d", p.TkCap,
				"%s", p.Policy.String(),
				"%d", r.IgoCycles,
				"%.2f", float64(r.Traffic)/float64(1<<20),
				"%.1f", 100*r.Reduction,
			)
		}
		fmt.Print(t)
	}
	if err := stopTrace(); err != nil {
		fatal(err)
	}
	if *manifest != "" {
		m := metrics.NewManifest("sweep")
		if err := m.SetFingerprint(struct {
			Tool        string `json:"tool"`
			Space       string `json:"space"`
			Prune       bool   `json:"prune"`
			Eps, EpsRed float64
			Budget      int `json:"budget"`
			ShardSize   int `json:"shard_size"`
			WaveSize    int `json:"wave_size"`
		}{"sweep", space.Fingerprint(), *prune, *eps, *epsRed, *budget, *shardSize, *waveSize}); err != nil {
			fatal(err)
		}
		m.Sweep = &metrics.SweepSummary{
			Points:         total,
			Simulated:      res.Simulated,
			Pruned:         res.Pruned,
			Skipped:        res.Skipped,
			Budgeted:       res.Budgeted,
			PrunedFraction: frac(res.Pruned, len(res.Rows)),
			FrontierSize:   len(res.Frontier),
			Complete:       res.Complete,
		}
		m.Finalize(metrics.Default())
		if err := m.WriteFile(*manifest); err != nil {
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// parseIntAxis parses a comma-separated integer axis strictly: "2.7" is
// rejected with a clear error instead of being truncated to 2.
func parseIntAxis(flagName, s string, lo int) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %q is not an integer (this axis takes whole numbers only)", flagName, p)
		}
		if v < lo {
			return nil, fmt.Errorf("%s: %d is below the minimum %d", flagName, v, lo)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloatAxis parses a comma-separated float axis; each entry is either a
// positive number or a range lo:hi:n (n evenly spaced points, inclusive) with
// an optional :log suffix for log spacing — "20:320:250:log" is how a sweep
// reaches hundreds of points on one axis without a generated flag string.
func parseFloatAxis(flagName, s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if strings.Contains(p, ":") {
			vals, err := parseRange(p)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", flagName, err)
			}
			out = append(out, vals...)
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: bad entry %q (want a positive number or lo:hi:n[:log])", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRange expands from:to:n[:log] into n inclusive points. from > to is
// allowed and yields a descending axis. Grid index order is also simulation
// priority across shards, so putting the strongest configurations first
// (e.g. -bw 320:20:250:log) seeds the pruning frontier with the points most
// likely to dominate the rest of the grid.
func parseRange(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	log := false
	if len(parts) == 4 && parts[3] == "log" {
		log = true
		parts = parts[:3]
	}
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad range %q (want from:to:n[:log])", s)
	}
	from, err1 := strconv.ParseFloat(parts[0], 64)
	to, err2 := strconv.ParseFloat(parts[1], 64)
	n, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || from <= 0 || to <= 0 || n < 1 {
		return nil, fmt.Errorf("bad range %q (want positive from and to, n >= 1)", s)
	}
	if n == 1 {
		return []float64{from}, nil
	}
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n-1)
		if log {
			out[i] = from * math.Exp(t*math.Log(to/from))
		} else {
			out[i] = from + t*(to-from)
		}
	}
	return out, nil
}

func parsePolicies(s string) ([]core.Policy, error) {
	var out []core.Policy
	for _, p := range strings.Split(s, ",") {
		name := strings.TrimSpace(p)
		if name == "all" {
			out = append(out, core.Policies()...)
			continue
		}
		pol, ok := core.ParsePolicy(name)
		if !ok {
			return nil, fmt.Errorf("-policy: unknown policy %q (want baseline, interleave, rearrange, partition or all)", p)
		}
		out = append(out, pol)
	}
	return out, nil
}

func rowTable(space dse.Space, rows []dse.Row) *stats.Table {
	t := stats.NewTable("cores", "bw GB/s", "spm MiB", "tkcap", "policy", "status",
		"cyc LB", "base cyc", "igo cyc", "reduction%", "evict", "spills")
	for _, r := range rows {
		p := space.Point(r.Index)
		status := string(r.Status)
		if r.Status == dse.StatusPruned {
			status = fmt.Sprintf("pruned(#%d)", r.PrunedBy)
		}
		t.AddRowF(
			"%d", p.Cores,
			"%.4g", p.BWGB,
			"%.4g", p.SPMMiB,
			"%d", p.TkCap,
			"%s", p.Policy.String(),
			"%s", status,
			"%d", r.CyclesLB,
			"%d", r.BaseCycles,
			"%d", r.IgoCycles,
			"%.1f", 100*r.Reduction,
			"%d", r.Evictions,
			"%d", r.Spills,
		)
	}
	return t
}

// writeCSV streams every row to path ("-" = stdout) through a buffered
// writer; a million-point sweep writes tens of MB, so rows never pass
// through an in-memory table.
func writeCSV(path string, space dse.Space, rows []dse.Row) error {
	if path == "-" {
		return streamCSV(os.Stdout, space, rows)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := streamCSV(f, space, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func streamCSV(out *os.File, space dse.Space, rows []dse.Row) error {
	w := bufio.NewWriterSize(out, 1<<20)
	fmt.Fprintln(w, "index,cores,bw_gbs,spm_mib,tkcap,policy,status,reason,cycles_lb,traffic_lb,red_cap,balance,pruned_by,base_cycles,igo_cycles,traffic,reduction,evictions,spills")
	for _, r := range rows {
		p := space.Point(r.Index)
		fmt.Fprintf(w, "%d,%d,%g,%g,%d,%s,%s,%s,%d,%d,%.6g,%.6g,%d,%d,%d,%d,%.6g,%d,%d\n",
			r.Index, p.Cores, p.BWGB, p.SPMMiB, p.TkCap, p.Policy.String(),
			r.Status, csvEscape(r.Reason),
			r.CyclesLB, r.TrafficLB, r.RedCap, r.Balance, r.PrunedBy,
			r.BaseCycles, r.IgoCycles, r.Traffic, r.Reduction, r.Evictions, r.Spills)
	}
	return w.Flush()
}

// csvEscape quotes a free-text field (skip reasons carry error strings).
func csvEscape(s string) string {
	if s == "" {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
