package igo

import (
	"fmt"

	"igosim/internal/analytic"
	"igosim/internal/energy"
	"igosim/internal/proptest"
	"igosim/internal/workload"
)

// EnergyModel converts simulated traffic and work into joules.
type EnergyModel = energy.Model

// EnergyBreakdown is the per-component energy of a run.
type EnergyBreakdown = energy.Breakdown

// DefaultEnergyModel returns the 45nm coefficient set (Horowitz-derived).
func DefaultEnergyModel() EnergyModel { return energy.Default45nm() }

// LayerAnalytic is the closed-form first-order model of one layer's
// backward pass: traffic lower bounds, arithmetic intensity and roofline
// classification.
type LayerAnalytic = analytic.LayerModel

// RooflineRidge returns cfg's ridge point in MACs per DRAM byte: layers
// below it are memory-bound.
func RooflineRidge(cfg Config) float64 { return analytic.Ridge(cfg) }

// Analyze builds the analytic model for one zoo layer under cfg.
func Analyze(cfg Config, l Layer) LayerAnalytic {
	return analytic.LayerModel{Dims: l.Dims, ElemBytes: cfg.ElemBytes, XReuse: l.XReuse}
}

// Variants lists the extra zoo models beyond the Table 4 suites
// (bert-base, T5-base, yolo-s, res18).
func Variants() []Model { return workload.Variants() }

// SelfCheck runs a small deterministic slice of the simulator's property
// suite — the single- and multi-core differential-oracle, conservation,
// cycle-envelope and partition invariants over generated cases — and
// returns the first violation, or nil. It is an embedding sanity check: a library user (or a
// CI job without the repository's test files) can prove the simulator
// behaves on their platform in about a second.
func SelfCheck() error {
	const casesPerInvariant = 25
	for _, inv := range proptest.Invariants() {
		c, err := proptest.RunPure("selfcheck-"+inv.Name, casesPerInvariant, inv.Check)
		if err != nil {
			return fmt.Errorf("igo: self-check property %s failed on %v: %w", inv.Name, c, err)
		}
	}
	return nil
}
