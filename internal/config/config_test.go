package config

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []NPU{SmallNPU(), LargeNPU(), GPULike()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestSmallNPUMatchesTable3(t *testing.T) {
	c := SmallNPU()
	if c.ArrayRows != 45 || c.ArrayCols != 45 {
		t.Errorf("PE array %dx%d, want 45x45", c.ArrayRows, c.ArrayCols)
	}
	if c.SPMBytes != 1<<20 {
		t.Errorf("SPM %d, want 1 MiB", c.SPMBytes)
	}
	if c.DRAMBandwidth != 22e9 {
		t.Errorf("bandwidth %g, want 22 GB/s", c.DRAMBandwidth)
	}
	if c.FrequencyHz != 1e9 {
		t.Errorf("frequency %g, want 1 GHz", c.FrequencyHz)
	}
	if c.Batch != 4 {
		t.Errorf("batch %d, want 4", c.Batch)
	}
}

func TestLargeNPUMatchesTable3(t *testing.T) {
	c := LargeNPU()
	if c.ArrayRows != 128 || c.ArrayCols != 128 {
		t.Errorf("PE array %dx%d, want 128x128", c.ArrayRows, c.ArrayCols)
	}
	if c.SPMBytes != 8<<20 {
		t.Errorf("SPM %d, want 8 MiB", c.SPMBytes)
	}
	if c.DRAMBandwidth != 150e9 {
		t.Errorf("bandwidth %g, want 150 GB/s", c.DRAMBandwidth)
	}
	if c.FrequencyHz != 1.05e9 {
		t.Errorf("frequency %g, want 1.05 GHz", c.FrequencyHz)
	}
	if c.Batch != 8 {
		t.Errorf("batch %d, want 8", c.Batch)
	}
}

func TestValidateRejectsEachField(t *testing.T) {
	base := LargeNPU()
	mutations := []struct {
		name string
		mut  func(*NPU)
	}{
		{"rows", func(c *NPU) { c.ArrayRows = 0 }},
		{"cols", func(c *NPU) { c.ArrayCols = -1 }},
		{"cores", func(c *NPU) { c.Cores = 0 }},
		{"spm", func(c *NPU) { c.SPMBytes = 0 }},
		{"bw", func(c *NPU) { c.DRAMBandwidth = 0 }},
		{"freq", func(c *NPU) { c.FrequencyHz = -1 }},
		{"elem", func(c *NPU) { c.ElemBytes = 0 }},
		{"batch", func(c *NPU) { c.Batch = 0 }},
		{"latency", func(c *NPU) { c.DRAMLatency = -5 }},
	}
	for _, m := range mutations {
		c := base
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %q not rejected", m.name)
		}
	}
}

func TestScalingWithCores(t *testing.T) {
	c := LargeNPU().WithCores(4)
	if c.Cores != 4 {
		t.Fatalf("cores = %d", c.Cores)
	}
	if c.TotalSPMBytes() != 4*(8<<20) {
		t.Errorf("total SPM %d", c.TotalSPMBytes())
	}
	if c.TotalBandwidth() != 4*150e9 {
		t.Errorf("total bandwidth %g", c.TotalBandwidth())
	}
	if c.TotalBatch() != 32 {
		t.Errorf("total batch %d", c.TotalBatch())
	}
	if !strings.Contains(c.Name, "x4") {
		t.Errorf("name %q should mention core count", c.Name)
	}
}

func TestWithOverrides(t *testing.T) {
	c := LargeNPU().WithBandwidth(75e9).WithBatch(16)
	if c.DRAMBandwidth != 75e9 || c.Batch != 16 {
		t.Fatalf("overrides not applied: %g %d", c.DRAMBandwidth, c.Batch)
	}
}

func TestBytesPerCycle(t *testing.T) {
	c := SmallNPU()
	if got := c.BytesPerCycle(); got != 22 {
		t.Fatalf("BytesPerCycle = %g, want 22", got)
	}
}

func TestPeakMACs(t *testing.T) {
	if got := SmallNPU().PeakMACsPerCycle(); got != 45*45 {
		t.Fatalf("peak MACs = %d", got)
	}
}

func TestDataflowString(t *testing.T) {
	if OutputStationary.String() != "output-stationary" || WeightStationary.String() != "weight-stationary" {
		t.Fatal("dataflow names wrong")
	}
	if !strings.Contains(Dataflow(9).String(), "9") {
		t.Fatal("unknown dataflow should include its value")
	}
}

// TestPresetSpellings pins every preset spelling the service, the igosim
// CLI and the sweep CLI accept, in any case, and a few they reject.
func TestPresetSpellings(t *testing.T) {
	want := map[string]NPU{
		"small":    SmallNPU(),
		"edge":     SmallNPU(),
		"large":    LargeNPU(),
		"server":   LargeNPU(),
		"gpu":      GPULike(),
		"gpu-like": GPULike(),
	}
	for name, cfg := range want {
		for _, s := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if got, ok := Preset(s); !ok || got != cfg {
				t.Errorf("Preset(%q) = %q, %v; want %q", s, got.Name, ok, cfg.Name)
			}
		}
	}
	for _, s := range []string{"", "medium", "small-npu", "gpu like", " large"} {
		if got, ok := Preset(s); ok {
			t.Errorf("Preset(%q) = %q, want rejected", s, got.Name)
		}
	}
}
