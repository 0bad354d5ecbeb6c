package metrics_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/sim"
	"igosim/internal/workload"
)

// buildManifest mirrors cmd/igosim's -manifest path in-process: run every
// model in the suite under the partition policy and encode the canonical
// record to bytes.
func buildManifest(t *testing.T, cfg config.NPU, models []workload.Model) []byte {
	t.Helper()
	var workloads []metrics.WorkloadResult
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Abbr
		base := core.RunTraining(cfg, sim.Options{}, m, core.PolBaseline)
		run := core.RunTraining(cfg, sim.Options{}, m, core.PolPartition)
		workloads = append(workloads, core.ManifestWorkload(cfg, base, run))
	}
	m := metrics.NewManifest("igosim")
	if err := m.SetFingerprint(struct {
		Tool   string     `json:"tool"`
		Config config.NPU `json:"config"`
		Models []string   `json:"models"`
		Policy string     `json:"policy"`
	}{"igosim", cfg, names, "partition"}); err != nil {
		t.Fatal(err)
	}
	m.Config = &cfg
	m.Workloads = workloads
	m.Finalize(metrics.Default())
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestManifestDeterministicAcrossJ is the satellite-4 golden: the manifest
// bytes must be identical at -j1 and -j8 on both model zoos. Everything a
// manifest carries is cycle-domain by construction; this test is the gate
// that keeps it so.
func TestManifestDeterministicAcrossJ(t *testing.T) {
	zoos := []struct {
		name   string
		cfg    config.NPU
		models []workload.Model
	}{
		{"edge", config.SmallNPU(), workload.EdgeSuite()},
		{"server", config.LargeNPU(), workload.ServerSuite()},
	}
	prevJ := runner.SetParallelism(0)
	defer runner.SetParallelism(prevJ)
	for _, zoo := range zoos {
		t.Run(zoo.name, func(t *testing.T) {
			var got [][]byte
			for _, j := range []int{1, 8} {
				core.ResetCaches()
				metrics.Reset()
				runner.SetParallelism(j)
				got = append(got, buildManifest(t, zoo.cfg, zoo.models))
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Fatalf("manifest bytes differ between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", got[0], got[1])
			}
			// The manifest must self-diff clean under zero tolerance.
			res, err := metrics.Diff(got[0], got[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("self-diff regressed: %+v", res.Regressions)
			}
			if res.Compared == 0 {
				t.Fatal("self-diff compared nothing")
			}
		})
	}
}

// TestManifestCorruptionCaught injects a one-cycle regression into a real
// manifest and requires igostat's engine to catch it and name the metric —
// the acceptance scenario behind `make manifest-check`.
func TestManifestCorruptionCaught(t *testing.T) {
	core.ResetCaches()
	metrics.Reset()
	good := buildManifest(t, config.SmallNPU(), workload.EdgeSuite()[:2])

	marker := `"total_cycles": `
	i := bytes.Index(good, []byte(marker))
	if i < 0 {
		t.Fatalf("manifest has no total_cycles field:\n%s", good)
	}
	start := i + len(marker)
	end := start
	for end < len(good) && good[end] >= '0' && good[end] <= '9' {
		end++
	}
	var cycles int64
	fmt.Sscanf(string(good[start:end]), "%d", &cycles)
	bad := append([]byte{}, good[:start]...)
	bad = append(bad, []byte(fmt.Sprintf("%d", cycles+1))...)
	bad = append(bad, good[end:]...)

	res, err := metrics.Diff(good, bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("one-cycle regression not caught")
	}
	found := false
	for _, r := range res.Regressions {
		if strings.Contains(r.Path, "total_cycles") {
			found = true
		}
	}
	if !found {
		t.Fatalf("regression does not name total_cycles: %+v", res.Regressions)
	}
}

// TestManifestWallMetrics pins the wall-domain opt-in: FinalizeWall records
// Wall samples under wall_metrics, while manifests that never call it must
// not carry the field at all — that omission is what keeps the simulator
// CLIs' manifests byte-identical at any -j.
func TestManifestWallMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	cycle := reg.NewGauge("test_points", "cycle-domain sample", metrics.Cycle)
	wall := reg.NewGauge("test_wall_ms", "wall-domain sample", metrics.Wall)
	cycle.Set(7)
	wall.Set(1234)

	withoutWall := metrics.NewManifest("test")
	withoutWall.Finalize(reg)
	var buf bytes.Buffer
	if err := withoutWall.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wall_metrics") {
		t.Errorf("manifest without FinalizeWall carries wall_metrics:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "test_points") {
		t.Errorf("cycle sample missing from manifest:\n%s", buf.String())
	}

	withWall := metrics.NewManifest("test")
	withWall.Finalize(reg)
	withWall.FinalizeWall(reg)
	buf.Reset()
	if err := withWall.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wall_metrics") || !strings.Contains(buf.String(), "test_wall_ms") {
		t.Errorf("FinalizeWall did not record the wall sample:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), `"test_wall_ms"`) && strings.Contains(buf.String(), `"metrics": [`) &&
		strings.Index(buf.String(), "test_wall_ms") < strings.Index(buf.String(), "wall_metrics") {
		t.Errorf("wall sample leaked into the cycle-domain metrics field:\n%s", buf.String())
	}
}
