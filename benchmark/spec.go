package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// specPath is the benchmark definition, relative to the repository root
// the benchmark runs from.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the program reads: the workloads
// and the declared metrics.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one declared metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if findWorkload(w.Name) == nil {
			return nil, fmt.Errorf("%s declares unknown workload %q", path, w.Name)
		}
	}
	return &s, nil
}

// unitOf returns a metric's declared unit, or for a metric printed but not
// declared, the unit its name ends in.
func (s *benchSpec) unitOf(name string) string {
	for _, ms := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	for _, u := range []string{"ms", "us", "ns", "s"} {
		if strings.Contains(name, "_"+u+".") || strings.HasSuffix(name, "_"+u) {
			return u
		}
	}
	return "count"
}

// expected.json holds the output digest of every workload for seeds 1 and
// 2: workload -> seed -> SHA-256 hex.
//
//go:embed expected.json
var expectedJSON []byte

// expectedDigest returns the recorded digest for (workload, seed), or ""
// when none is recorded.
func expectedDigest(name string, seed uint64) string {
	var all map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("benchmark: malformed expected.json: " + err.Error())
	}
	return all[name][strconv.FormatUint(seed, 10)]
}
