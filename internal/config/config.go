// Package config defines NPU hardware configurations for the simulator.
//
// The two primary presets reproduce Table 3 of the paper: a small
// edge-class NPU modelled after the ARM Ethos-N77 and a large server-class
// NPU modelled after a single Google TPUv4 systolic array. A third,
// GPU-like preset backs the Figure 17 validation study.
package config

import (
	"errors"
	"fmt"
	"strings"
)

// Dataflow selects the systolic-array mapping used by the timing model.
type Dataflow uint8

const (
	// OutputStationary keeps the output tile pinned on the PE array while
	// operand tiles stream through. This is the mapping the simulator uses
	// by default; it matches the tiling assumptions in the paper's baseline.
	OutputStationary Dataflow = iota
	// WeightStationary preloads the weight tile and streams activations.
	WeightStationary
)

func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "output-stationary"
	case WeightStationary:
		return "weight-stationary"
	default:
		return fmt.Sprintf("dataflow(%d)", uint8(d))
	}
}

// NPU describes one simulated accelerator.
//
// Multi-core NPUs follow the paper's organisation: every core has its own
// systolic array and DMA bandwidth, while the scratchpad is shared by all
// cores (Section 2.2). SPMBytes and DRAMBandwidth are *per core*; the
// effective shared SPM is Cores*SPMBytes and the aggregate DRAM bandwidth is
// Cores*DRAMBandwidth, matching Section 6.3 ("DRAM bandwidth, SPM size, and
// batch size increase proportionally with the number of cores").
type NPU struct {
	Name string

	// ArrayRows and ArrayCols give the PE array dimensions of one core.
	ArrayRows, ArrayCols int

	// Cores is the number of systolic-array cores.
	Cores int

	// SPMBytes is the scratchpad capacity per core, in bytes.
	SPMBytes int64

	// DRAMBandwidth is the off-chip bandwidth per core, in bytes/second.
	DRAMBandwidth float64

	// DRAMLatency is the fixed per-burst DRAM access latency in cycles,
	// charged once per contiguous tile transfer.
	DRAMLatency int64

	// FrequencyHz is the core clock.
	FrequencyHz float64

	// ElemBytes is the datatype width (4 for FP32).
	ElemBytes int

	// Batch is the per-core training batch size used by the workloads.
	Batch int

	// Dataflow selects the compute-timing mapping.
	Dataflow Dataflow

	// TkCap caps the contraction-dimension tile the baseline tiling
	// strategy (schedule.ChooseTiling) may pick; zero selects the built-in
	// default. It is a software tiling knob rather than a hardware
	// parameter: it only shapes the tile grid, which the memoization keys
	// already capture through TileParams, so it is excluded from
	// Fingerprint. The design-space sweep uses it as its tiling axis.
	TkCap int
}

// Validate reports a descriptive error when the configuration is unusable.
func (c NPU) Validate() error {
	switch {
	case c.ArrayRows <= 0 || c.ArrayCols <= 0:
		return fmt.Errorf("config: %q has invalid PE array %dx%d", c.Name, c.ArrayRows, c.ArrayCols)
	case c.Cores <= 0:
		return fmt.Errorf("config: %q has invalid core count %d", c.Name, c.Cores)
	case c.SPMBytes <= 0:
		return fmt.Errorf("config: %q has invalid SPM size %d", c.Name, c.SPMBytes)
	case c.DRAMBandwidth <= 0:
		return fmt.Errorf("config: %q has invalid DRAM bandwidth %g", c.Name, c.DRAMBandwidth)
	case c.FrequencyHz <= 0:
		return fmt.Errorf("config: %q has invalid frequency %g", c.Name, c.FrequencyHz)
	case c.ElemBytes <= 0:
		return fmt.Errorf("config: %q has invalid element size %d", c.Name, c.ElemBytes)
	case c.Batch <= 0:
		return fmt.Errorf("config: %q has invalid batch size %d", c.Name, c.Batch)
	case c.DRAMLatency < 0:
		return errors.New("config: negative DRAM latency")
	case c.TkCap < 0:
		return fmt.Errorf("config: %q has negative contraction-tile cap %d", c.Name, c.TkCap)
	}
	return nil
}

// Fingerprint identifies the simulation-relevant hardware parameters of a
// configuration: two NPUs with equal fingerprints produce identical cycle
// and traffic results for identical tile streams. Name is presentation
// only and excluded; Batch only shapes workload lowering (it is already
// captured by the resulting GEMM dimensions) and is excluded too. The
// fingerprint keys the simulator's tuning and memoization caches.
type Fingerprint struct {
	ArrayRows, ArrayCols int
	Cores                int
	SPMBytes             int64
	DRAMBandwidth        float64
	DRAMLatency          int64
	FrequencyHz          float64
	ElemBytes            int
	Dataflow             Dataflow
}

// Fingerprint returns the configuration's simulation fingerprint.
func (c NPU) Fingerprint() Fingerprint {
	return Fingerprint{
		ArrayRows: c.ArrayRows, ArrayCols: c.ArrayCols,
		Cores:         c.Cores,
		SPMBytes:      c.SPMBytes,
		DRAMBandwidth: c.DRAMBandwidth,
		DRAMLatency:   c.DRAMLatency,
		FrequencyHz:   c.FrequencyHz,
		ElemBytes:     c.ElemBytes,
		Dataflow:      c.Dataflow,
	}
}

// TotalSPMBytes returns the shared scratchpad capacity across all cores.
func (c NPU) TotalSPMBytes() int64 { return int64(c.Cores) * c.SPMBytes }

// TotalBandwidth returns the aggregate DRAM bandwidth across all cores.
func (c NPU) TotalBandwidth() float64 { return float64(c.Cores) * c.DRAMBandwidth }

// TotalBatch returns the aggregate batch size across all cores.
func (c NPU) TotalBatch() int { return c.Cores * c.Batch }

// BytesPerCycle converts the per-core DRAM bandwidth into bytes per core
// clock cycle, the unit the engine's memory stage works in.
func (c NPU) BytesPerCycle() float64 { return c.DRAMBandwidth / c.FrequencyHz }

// PeakMACsPerCycle returns the per-core MAC throughput upper bound.
func (c NPU) PeakMACsPerCycle() int64 { return int64(c.ArrayRows) * int64(c.ArrayCols) }

// WithCores returns a copy configured with n cores (per-core resources
// unchanged, so SPM/bandwidth/batch scale with n as in Section 6.3).
func (c NPU) WithCores(n int) NPU {
	c.Cores = n
	if n > 1 {
		c.Name = fmt.Sprintf("%s-x%d", c.Name, n)
	}
	return c
}

// WithBandwidth returns a copy with the per-core DRAM bandwidth replaced.
func (c NPU) WithBandwidth(bytesPerSec float64) NPU {
	c.DRAMBandwidth = bytesPerSec
	return c
}

// WithBatch returns a copy with the per-core batch size replaced.
func (c NPU) WithBatch(b int) NPU {
	c.Batch = b
	return c
}

// WithTkCap returns a copy with the contraction-tile cap replaced (0
// restores the built-in default).
func (c NPU) WithTkCap(cap int) NPU {
	c.TkCap = cap
	return c
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
	gb  = 1e9
)

// SmallNPU reproduces the "Small NPU" row of Table 3: an edge-class NPU
// based on the ARM Ethos-N77 — one 45x45 PE array, 1 MB scratchpad,
// 22 GB/s DRAM, 1 GHz, batch size 4.
func SmallNPU() NPU {
	return NPU{
		Name:          "small-npu",
		ArrayRows:     45,
		ArrayCols:     45,
		Cores:         1,
		SPMBytes:      1 * mib,
		DRAMBandwidth: 22 * gb,
		DRAMLatency:   100,
		FrequencyHz:   1e9,
		ElemBytes:     4,
		Batch:         4,
		Dataflow:      OutputStationary,
	}
}

// LargeNPU reproduces the "Large NPU" row of Table 3: a server-class NPU
// based on a Google TPUv4 core — 128x128 PE array, 8 MB scratchpad and
// 150 GB/s DRAM per core, 1.05 GHz, batch size 8 per core, 1-8 cores.
func LargeNPU() NPU {
	return NPU{
		Name:          "large-npu",
		ArrayRows:     128,
		ArrayCols:     128,
		Cores:         1,
		SPMBytes:      8 * mib,
		DRAMBandwidth: 150 * gb,
		DRAMLatency:   100,
		FrequencyHz:   1.05e9,
		ElemBytes:     4,
		Batch:         8,
		Dataflow:      OutputStationary,
	}
}

// Preset returns the preset a name spells, ignoring case: small or edge,
// large or server, gpu or gpu-like.
func Preset(name string) (NPU, bool) {
	switch strings.ToLower(name) {
	case "small", "edge":
		return SmallNPU(), true
	case "large", "server":
		return LargeNPU(), true
	case "gpu", "gpu-like":
		return GPULike(), true
	}
	return NPU{}, false
}

// GPULike backs the Figure 17 validation study. The paper runs its
// transformation as CUDA kernels on an RTX 3090, using SM shared memory as
// the reuse buffer. We substitute a configuration whose on-chip store and
// bandwidth-per-FLOP match one 3090 SM working from GDDR6X: a 128 KB
// shared-memory-sized buffer, a modest PE array standing in for the SM's
// tensor throughput, and the per-SM share of device bandwidth.
func GPULike() NPU {
	return NPU{
		Name:          "gpu-like",
		ArrayRows:     64,
		ArrayCols:     64,
		Cores:         1,
		SPMBytes:      128 * kib,
		DRAMBandwidth: 11 * gb, // ~936 GB/s across 82 SMs
		DRAMLatency:   60,
		FrequencyHz:   1.4e9,
		ElemBytes:     4,
		Batch:         4, // same batch as the small NPU, per Section 6.6
		Dataflow:      OutputStationary,
	}
}
