// Command igobench is the repository benchmark. It runs the simulator's
// three user-facing paths (igoserved requests, dse sweeps and the GPU
// validation study's backward passes) as four cold-start workloads. Every
// round of a workload runs in a fresh child process, so each round pays
// process start, package init and empty caches, as a CLI run or a freshly
// started server does.
//
// The last line of standard output is one JSON object. With -trace 0 it
// carries every end-to-end metric BENCHMARK.json declares; with -trace 1,
// every per-layer metric. README.md maps the metrics to layers and
// workloads and explains how to compare two commits.
//
// Run from the repository root:
//
//	bash benchmark/run.sh                                  # every workload, one round each
//	bash benchmark/run.sh -workload sweep-dse -seed 1 -seconds 30
//	bash benchmark/run.sh -workload serve-mixed -trace 1 -spans spans.json
//	bash benchmark/run.sh -calibrate -runs 10 -seconds 30 -record runs.jsonl
//	bash benchmark/run.sh compare parent.jsonl change.jsonl
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line flags.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	spans     string
	record    string
	calibrate bool
	runs      int
	child     string
}

// setupsPerRound is how many extra set-up-only children an untraced run
// starts before each round. One child's set-up time varies by a factor of
// two or more on a busy host (2 to 6 ms for sweep-dse on a 2-vCPU VM), so
// setup_s is a median over dozens of them, and spreading them over the
// run's rounds samples the host's speed over the whole run, as the other
// metrics do, rather than in its first second.
const setupsPerRound = 10

// minLatencySamples is the pooled latency sample count a timed run of a
// request workload collects at least, so that p99 has ten samples beyond
// it.
const minLatencySamples = 1000

// childTimeout bounds one child process; a round that exceeds it is a hang.
const childTimeout = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	fs := flag.NewFlagSet("igobench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 0, "measure for this many seconds, repeating cold rounds (0: one round)")
	fs.IntVar(&o.trace, "trace", 0, "1: print per-layer metrics from alternating traced and untraced rounds")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the traced rounds' spans to this JSON file")
	fs.StringVar(&o.record, "record", "", "append each run's result as one JSON line to this file (input of compare)")
	fs.BoolVar(&o.calibrate, "calibrate", false, "run -runs times with seeds seed, seed+1, ... and report each metric's spread")
	fs.IntVar(&o.runs, "runs", 5, "runs per workload with -calibrate")
	fs.StringVar(&o.child, "child", "", "internal: run one round (round) or only the set-up (setup) in this process")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fatalf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 0 || o.runs < 1 {
		fatalf("-seconds must be >= 0 and -runs >= 1")
	}
	switch o.child {
	case "":
	case "round", "setup":
		os.Exit(childMain(o))
	default:
		fatalf("-child must be round or setup, got %q", o.child)
	}

	spec, err := loadSpec(specPath)
	if err != nil {
		fatalf("%v", err)
	}
	names := workloadNames()
	if o.workload != "" {
		if findWorkload(o.workload) == nil {
			fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
		}
		names = []string{o.workload}
	}
	if o.calibrate {
		if err := calibrate(spec, names, o); err != nil {
			fatalf("%v", err)
		}
		return
	}
	for _, name := range names {
		res, err := runWorkload(spec, name, o)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		if err := record(o, name, res); err != nil {
			fatalf("%v", err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "igobench: "+format+"\n", args...)
	os.Exit(1)
}

// result is one run's outcome, the JSON object of the last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// round is what one child process reports for its round.
type round struct {
	// Ops counts the operations ops_per_s divides by the wall time:
	// requests, grid points or backward layer simulations.
	Ops    int `json:"ops"`
	Failed int `json:"failed"`
	// WallS is the timed phase's wall time.
	WallS float64 `json:"wall_s"`
	// LatNs holds one latency per user-visible call: a request, or the
	// whole round for the sweep and the GPU study.
	LatNs      []int64            `json:"lat_ns"`
	HeapMiB    float64            `json:"heap_mib"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	Digest     string             `json:"digest"`
	CheckErr   string             `json:"check_err,omitempty"`
	Layer      map[string]float64 `json:"layer"`
	Spans      []span             `json:"spans,omitempty"`

	setupS float64 // measured by the parent: spawn to ready line
}

// runWorkload runs one workload for o.seconds, one fresh child process per
// round, and reduces the rounds to the declared metrics. With tracing on,
// rounds alternate untraced and traced so the tracing overhead is measured
// against untraced rounds of the same run.
//
//lint:walldomain the run budget and round timing are the measurement itself
func runWorkload(spec *benchSpec, name string, o options) (result, error) {
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	var setups []float64
	var plain, traced []round
	samples := 0
	for {
		tracedRound := o.trace == 1 && len(plain) > len(traced)
		t0 := time.Now()
		for i := 0; o.trace == 0 && i < setupsPerRound; i++ {
			r, err := spawn(o, name, "setup", false)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, r.setupS)
		}
		r, err := spawn(o, name, "round", tracedRound)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, r.setupS)
		kind := "untraced"
		if tracedRound {
			traced = append(traced, r)
			kind = "traced"
		} else {
			plain = append(plain, r)
			samples += len(r.LatNs)
		}
		fmt.Fprintf(os.Stderr, "%s round %d (%s): setup %.3f s, %d ops in %.3f s, heap %.1f MiB\n",
			name, len(plain)+len(traced), kind, r.setupS, r.Ops, r.WallS, r.HeapMiB)
		minimal := len(plain) > 0 && (o.trace == 0 || len(traced) > 0)
		// A timed untraced run of a request workload goes on until p99 has
		// ten samples beyond it; rounds of one call each never get there.
		if o.trace == 0 && budget > 0 && samples >= 10*len(plain) {
			minimal = minimal && samples >= minLatencySamples
		}
		// Start another round only if one more, as long as the last, still
		// ends within the budget.
		if minimal && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	want := expectedDigest(name, o.seed)
	all := append(append([]round(nil), plain...), traced...)
	for i, r := range all {
		res.Attempted += r.Ops
		res.Failed += r.Failed
		switch {
		case r.CheckErr != "":
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s round %d: %s\n", name, i+1, r.CheckErr)
		case want != "" && r.Digest != want:
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s round %d: output digest %s, expected %s\n", name, i+1, r.Digest, want)
		case r.Digest != all[0].Digest:
			res.Correct = false
			fmt.Fprintf(os.Stderr, "%s round %d: output digest %s differs from round 1's %s\n", name, i+1, r.Digest, all[0].Digest)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	var values map[string]float64
	declared := spec.EndToEnd
	if o.trace == 0 {
		values = endToEnd(plain, setups)
	} else {
		values = perLayer(plain, traced)
		declared = spec.PerLayer
		if o.spans != "" {
			if err := writeSpans(o.spans, name, traced); err != nil {
				return result{}, err
			}
		}
	}
	printTable(spec, name, o.seed, all[0].Digest, values)
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return result{}, fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// endToEnd reduces untraced rounds to the end-to-end metrics: medians over
// rounds, and latency quantiles over the rounds' pooled samples.
func endToEnd(plain []round, setups []float64) map[string]float64 {
	var rates, heaps, rss []float64
	var lat []int64
	for _, r := range plain {
		rates = append(rates, float64(r.Ops)/r.WallS)
		heaps = append(heaps, r.HeapMiB)
		rss = append(rss, r.PeakRSSMiB)
		lat = append(lat, r.LatNs...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return map[string]float64{
		"setup_s":      median(setups),
		"ops_per_s":    median(rates),
		"p50_ms":       float64(nearestRank(lat, 0.50)) / 1e6,
		"p99_ms":       float64(nearestRank(lat, 0.99)) / 1e6,
		"heap_mib":     median(heaps),
		"peak_rss_mib": median(rss),
		"latency_n":    float64(len(lat)),
	}
}

// perLayer reduces traced rounds to per-layer metrics (medians over the
// traced rounds) and adds the tracing overhead against the untraced rounds.
func perLayer(plain, traced []round) map[string]float64 {
	byName := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.Layer {
			byName[k] = append(byName[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range byName {
		out[k] = median(vs)
	}
	var tw, pw []float64
	for _, r := range traced {
		tw = append(tw, r.WallS)
	}
	for _, r := range plain {
		pw = append(pw, r.WallS)
	}
	out["trace.overhead_share"] = median(tw)/median(pw) - 1
	return out
}

// printTable prints every measured metric, declared or not, one per line.
func printTable(spec *benchSpec, name string, seed uint64, digest string, values map[string]float64) {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s seed=%d digest=%s\n", name, seed, digest)
	for _, k := range keys {
		fmt.Printf("%-36s %16.6g %s\n", k, values[k], spec.unitOf(k))
	}
}

// spawn runs one child process of the given mode and returns its round,
// with setupS measured from process start to the child's ready line.
//
//lint:walldomain setup_s is the wall time from spawn to the ready line
func spawn(o options, name, mode string, traced bool) (round, error) {
	exe, err := os.Executable()
	if err != nil {
		return round{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return round{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return round{}, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	setup := time.Since(start).Seconds()
	rest, _ := io.ReadAll(br) // a short read shows up as a Wait or decode error
	if err := cmd.Wait(); err != nil {
		return round{}, fmt.Errorf("%s child: %w", mode, err)
	}
	if rerr != nil || line != readyLine+"\n" {
		return round{}, fmt.Errorf("%s child: no ready line (got %q)", mode, line)
	}
	var r round
	if mode == "round" {
		if err := json.Unmarshal(rest, &r); err != nil {
			return round{}, fmt.Errorf("round child output: %w", err)
		}
	}
	r.setupS = setup
	return r, nil
}

// readyLine is what a child prints once its set-up is done.
const readyLine = "ready"

// childMain runs one round (or only the set-up) in this process and prints
// the ready line, then the round as one JSON line.
func childMain(o options) int {
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "igobench: unknown workload %q\n", o.workload)
		return 2
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	j, err := w.prepare(o.seed, false, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "igobench: %s set-up: %v\n", w.name, err)
		return 1
	}
	fmt.Println(readyLine)
	if o.child == "setup" {
		j.close()
		return 0
	}
	r, err := execute(j, tr, false)
	j.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "igobench: %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "igobench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs a prepared job's timed phase and collects the round: its
// operations and latencies, host memory, the output check and the
// per-layer metrics (span-derived ones only when tr is set).
//
//lint:walldomain the timed phase's wall time is the measurement itself
func execute(j job, tr *tracer, small bool) (round, error) {
	rec := &recorder{}
	from := tr.now()
	start := time.Now()
	j.run(rec)
	wall := time.Since(start)
	to := tr.now()

	r := round{Ops: rec.ops, Failed: rec.failed, WallS: wall.Seconds(), LatNs: rec.lat}
	r.Layer = layerCounters()
	r.HeapMiB = liveHeapMiB()
	rss, err := peakRSSMiB()
	if err != nil {
		return round{}, err
	}
	r.PeakRSSMiB = rss
	if r.Digest, err = j.check(); err != nil {
		r.CheckErr = err.Error()
	}
	j.layerMetrics(r.Layer)
	if tr != nil {
		probe(tr, j.points(), small)
		tr.layerMetrics(r.Layer, from, to)
		r.Spans = tr.snapshot()
	}
	return r, nil
}
