package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"igosim/internal/analytic"
	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/metrics"
	"igosim/internal/proptest"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/stats"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one request or probe item share
// ID; Parent names the enclosing span of the same ID ("" for a root).
// Times are nanoseconds since the round's tracer started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Ops is the op count of the program a stage span processed.
	Ops int `json:"ops,omitempty"`
}

// tracer keeps a round's spans in memory. A nil tracer records nothing, so
// untraced rounds call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer starts a round's span clock.
//
//lint:walldomain spans record host time
func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the nanoseconds since the tracer started, 0 when untraced.
//
//lint:walldomain spans record host time
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Nanoseconds()
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, id int64, parent string, ops int, fn func()) {
	from := t.now()
	fn()
	t.add(span{Name: name, ID: id, Parent: parent, Start: from, End: t.now(), Ops: ops})
}

// Probe sizes: the traced probes sample at most this many of the
// workload's distinct points, and stage at most this many layer shapes.
const (
	maxProbePoints = 16
	maxProbeShapes = 48
)

// probeIDBase keeps probe span ids clear of the workload's request ids.
const probeIDBase = 1 << 40

// probe runs the traced per-layer passes over a sample of the workload's
// points, after dropping every simulator cache so each pass starts cold:
//
//   - core.step: core.RunTraining (or RunBackwardOnly) per sampled point;
//   - analytic.floors: analytic.FloorsOf over each sampled point's layers;
//   - stage: each distinct single-core layer shape through
//     core.TunedBaselineKernels, sim.CompileSchedules, sim.ResolveProgram,
//     ResolvedTrace.Replay and the one-shot sim.RunSchedules.
func probe(tr *tracer, pts []point, small bool) {
	n := maxProbePoints
	if small {
		n = 2
	}
	sample := sampleOf(pts, n)
	core.ResetCaches()
	for k, p := range sample {
		tr.timed("core.step", probeIDBase+int64(k), "", 0, func() {
			if p.backwardOnly {
				core.RunBackwardOnly(p.cfg, sim.Options{}, p.model, p.pol)
			} else {
				core.RunTraining(p.cfg, sim.Options{}, p.model, p.pol)
			}
		})
	}
	for k, p := range sample {
		tr.timed("analytic.floors", probeIDBase+int64(k), "", 0, func() {
			for _, lp := range core.PlanModel(p.cfg, p.model) {
				analytic.FloorsOf(p.cfg, lp.Params)
			}
		})
	}
	type shape struct {
		fp config.Fingerprint
		p  schedule.TileParams
	}
	seen := map[shape]bool{}
	id := int64(2 * probeIDBase)
	for _, p := range sample {
		cfg := p.cfg.WithCores(1)
		for _, lp := range core.PlanModel(cfg, p.model) {
			params := lp.Params
			params.Layer = 0
			sh := shape{cfg.Fingerprint(), params}
			if seen[sh] || len(seen) >= maxProbeShapes {
				continue
			}
			seen[sh] = true
			stage(tr, id, cfg, params)
			id++
		}
	}
}

// stage times one layer shape through each execution stage.
func stage(tr *tracer, id int64, cfg config.NPU, p schedule.TileParams) {
	from := tr.now()
	var dxK, dwK schedule.Schedule
	tr.timed("core.tune", id, "stage", 0, func() { dxK, dwK = core.TunedBaselineKernels(cfg, p) })
	ops := len(dxK.Ops) + len(dwK.Ops)
	var prog *schedule.Program
	tr.timed("schedule.compile", id, "stage", ops, func() { prog = sim.CompileSchedules(dxK, dwK) })
	var rt *sim.ResolvedTrace
	tr.timed("sim.resolve", id, "stage", ops, func() { _, rt = sim.ResolveProgram(cfg, sim.Options{}, prog) })
	if rt != nil {
		tr.timed("sim.replay", id, "stage", ops, func() { rt.Replay(cfg) })
	}
	tr.timed("sim.engine", id, "stage", ops, func() { sim.RunSchedules(cfg, sim.Options{}, dxK, dwK) })
	tr.add(span{Name: "stage", ID: id, Start: from, End: tr.now()})
}

// sampleOf picks up to n of pts at fixed pseudo-random positions, keeping
// their order. An evenly strided pick would alias with workloads that
// cycle through their combinations (serve-unique repeats every 20).
func sampleOf(pts []point, n int) []point {
	if len(pts) <= n {
		return pts
	}
	src := proptest.NewSource(uint64(len(pts)))
	picked := map[int]bool{}
	for len(picked) < n {
		picked[src.Pick(len(pts))] = true
	}
	out := make([]point, 0, n)
	for i, p := range pts {
		if picked[i] {
			out = append(out, p)
		}
	}
	return out
}

// layerMetrics adds the span-derived per-layer metrics: step latency,
// per-op stage costs, the analytic floors' total and the share of the
// timed phase [from, to] that no span covers.
func (t *tracer) layerMetrics(m map[string]float64, from, to int64) {
	spans := t.snapshot()
	var steps []float64
	dur := map[string]int64{}
	ops := map[string]int64{}
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
		ops[s.Name] += int64(s.Ops)
		if s.Name == "core.step" {
			steps = append(steps, float64(s.End-s.Start)/1e6)
		}
	}
	putQuantile(m, "core.step_ms.p50", steps, 0.5)
	putQuantile(m, "core.step_ms.p99", steps, 0.99)
	for _, st := range []struct{ metric, span string }{
		{"schedule.compile_ns_per_op", "schedule.compile"},
		{"sim.resolve_ns_per_op", "sim.resolve"},
		{"sim.replay_ns_per_op", "sim.replay"},
		{"sim.engine_ns_per_op", "sim.engine"},
	} {
		if ops[st.span] > 0 {
			m[st.metric] = float64(dur[st.span]) / float64(ops[st.span])
		}
	}
	m["analytic.floors_us.total"] = float64(dur["analytic.floors"]) / 1e3
	if d := dur["dse.run"]; d > 0 {
		m["dse.run_s"] = float64(d) / 1e9
	}
	m["trace.unattributed_share"] = uncovered(spans, from, to)
}

// uncovered returns the share of [from, to] that no span covers.
func uncovered(spans []span, from, to int64) float64 {
	if to <= from {
		return 0
	}
	var iv [][2]int64
	for _, s := range spans {
		if s.End > from && s.Start < to {
			iv = append(iv, [2]int64{max(s.Start, from), min(s.End, to)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, from
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		covered += v[1] - max(v[0], end)
		end = v[1]
	}
	return 1 - float64(covered)/float64(to-from)
}

// layerCounters reads the counters the program's layers export, right
// after the timed phase: cache statistics, two-phase execution, the metrics
// registry and the Go runtime.
func layerCounters() map[string]float64 {
	m := map[string]float64{
		"dse.pruned_fraction": 0,
		"dse.simulated":       0,
		"dse.frontier_size":   0,
	}
	for _, c := range stats.CacheReport() {
		switch {
		case c.Name == "serve/result":
			m["serve.result.hit_rate"] = c.HitRate()
			m["serve.result.coalesced"] = float64(c.Coalesced)
			m["serve.result.evictions"] = float64(c.Evictions)
		case strings.HasPrefix(c.Name, "core/"):
			name := "core." + strings.ReplaceAll(strings.TrimPrefix(c.Name, "core/"), "-", "_")
			m[name+".hit_rate"] = c.HitRate()
			m[name+".entries"] = float64(c.Entries)
		}
	}
	ph := sim.ResolvedPhaseStats()
	m["sim.resolutions"] = float64(ph.Resolutions)
	m["sim.replays"] = float64(ph.Replays)
	m["sim.reuse_ratio"] = ph.ReuseRatio()
	m["sim.resolved.evictions"] = float64(sim.ResolvedCacheStats().Evictions)
	m["sim.passes"] = float64(metrics.Value("sim_passes_total"))
	m["core.layer_sims"] = float64(metrics.Value("core_layer_sims_total"))
	m["runner.tasks"] = float64(metrics.Value("runner_tasks_total"))

	rs := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(rs)
	m["go.alloc_mib"] = float64(rs[0].Value.Uint64()) / (1 << 20)
	m["go.gc_count"] = float64(rs[1].Value.Uint64())
	if total := rs[3].Value.Float64(); total > 0 {
		m["go.gc_cpu_fraction"] = rs[2].Value.Float64() / total
	}
	return m
}

// liveHeapMiB collects garbage and returns the live heap. The second
// collection frees what the first only moved to the sync.Pool victim
// caches, so pooled scratch buffers do not count.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// writeSpans writes the traced rounds' spans as one JSON document.
func writeSpans(path, name string, traced []round) error {
	type roundSpans struct {
		Round int    `json:"round"`
		Spans []span `json:"spans"`
	}
	doc := struct {
		Workload string       `json:"workload"`
		Rounds   []roundSpans `json:"rounds"`
	}{Workload: name}
	for i, r := range traced {
		doc.Rounds = append(doc.Rounds, roundSpans{Round: i + 1, Spans: r.Spans})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
