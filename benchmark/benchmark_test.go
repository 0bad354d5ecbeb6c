package main

import (
	"math"
	"regexp"
	"testing"

	"igosim/internal/core"
	"igosim/internal/runner"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloads runs every workload at a tiny scale, untraced at -j1 and
// traced at -j2, and checks that each declared metric is measured, that the
// output digests agree, and that traced spans nest.
func TestWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	checkSpec(t, spec)
	defer runner.SetParallelism(runner.SetParallelism(0))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			runner.SetParallelism(1)
			core.ResetCaches()
			plain := runSmall(t, w, nil)
			runner.SetParallelism(2)
			core.ResetCaches()
			tr := newTracer()
			traced := runSmall(t, w, tr)

			if plain.Digest == "" || plain.Digest != traced.Digest {
				t.Errorf("digest at -j1 untraced %q, at -j2 traced %q", plain.Digest, traced.Digest)
			}
			e2e := endToEnd([]round{plain}, []float64{0.01})
			for _, m := range spec.EndToEnd {
				if v, ok := e2e[m.Name]; !ok || v == 0 || math.IsNaN(v) {
					t.Errorf("end-to-end metric %s = %v, %v", m.Name, v, ok)
				}
			}
			layer := perLayer([]round{plain}, []round{traced})
			for _, m := range spec.PerLayer {
				if v, ok := layer[m.Name]; !ok || math.IsNaN(v) {
					t.Errorf("per-layer metric %s = %v, %v", m.Name, v, ok)
				}
			}
			for name := range layer {
				if !metricName.MatchString(name) {
					t.Errorf("metric name %q", name)
				}
			}
			checkNesting(t, traced.Spans)
		})
	}
}

func runSmall(t *testing.T, w workload, tr *tracer) round {
	t.Helper()
	j, err := w.prepare(1, true, tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := execute(j, tr, true)
	j.close()
	if err != nil {
		t.Fatal(err)
	}
	if r.CheckErr != "" || r.Failed > 0 || r.Ops == 0 {
		t.Fatalf("round: check %q, %d of %d ops failed", r.CheckErr, r.Failed, r.Ops)
	}
	return r
}

// checkNesting checks that every child span lies within its parent and
// that the parent exists under the child's id.
func checkNesting(t *testing.T, spans []span) {
	t.Helper()
	type key struct {
		name string
		id   int64
	}
	byKey := map[key]span{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s/%d ends before it starts", s.Name, s.ID)
		}
		byKey[key{s.Name, s.ID}] = s
	}
	children := 0
	for _, s := range spans {
		if s.Parent == "" {
			continue
		}
		children++
		p, ok := byKey[key{s.Parent, s.ID}]
		if !ok {
			t.Errorf("span %s/%d: no parent %s with its id", s.Name, s.ID, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s/%d [%d,%d] outside parent %s [%d,%d]", s.Name, s.ID, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if children == 0 {
		t.Error("no child spans recorded")
	}
}

// checkSpec checks BENCHMARK.json against the limits the benchmark runner
// enforces and against the workloads this program defines.
func checkSpec(t *testing.T, spec *benchSpec) {
	t.Helper()
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("metric name %q malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, w := range spec.Workloads {
		if !metricName.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why of %d characters", w.Name, len(w.Why))
		}
		for _, seed := range []uint64{1, 2} {
			if expectedDigest(w.Name, seed) == "" {
				t.Errorf("expected.json has no digest for %s seed %d", w.Name, seed)
			}
		}
	}
}

// TestQuartiles checks the quartiles against Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(vs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if m := median(vs); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	steady := func(base float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base * (1 + 0.001*float64(i%3))
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", steady(10), steady(10.2), verdictSame},
		{"gain", steady(10), steady(8), verdictGain},
		{"regression", steady(10), steady(11.5), verdictRegression},
		{"too few pairs for a gain", steady(10)[:5], steady(8)[:5], verdictSame},
		{"unresolved", []float64{10, 20, 10, 20, 10}, []float64{15, 15, 15, 15, 15}, verdictUnresolved},
	} {
		if got := judge("w", lower, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"10 ms slower", steady(0.01), steady(0.02), verdictSame},
		{"10 ms faster", steady(0.02), steady(0.01), verdictSame},
		{"40 ms faster", steady(0.05), steady(0.01), verdictGain},
		{"spread of 50% but 5 ms", []float64{0.01, 0.015, 0.01, 0.015, 0.01}, []float64{0.015, 0.01, 0.015, 0.01, 0.015}, verdictSame},
		{"40 ms slower", steady(0.01), steady(0.05), verdictRegression},
		{"spread of 40 ms", []float64{0.01, 0.05, 0.01, 0.05, 0.01}, steady(0.03), verdictUnresolved},
	} {
		if got := judge("w", setup, c.parent, c.change).verdict; got != c.want {
			t.Errorf("setup_s %s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
