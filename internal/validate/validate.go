// Package validate implements the model-zoo validation pass behind
// cmd/validate: for every layer of every workload it executes the baseline,
// interleaved, rearranged and partitioned schedules numerically and checks
// the resulting dX/dW against reference matrix products, optionally holding
// every residency simulation to bit-exact agreement with the
// internal/refmodel oracle. It lives outside the command so tests can drive
// the full pass in-process — including the failure paths a CLI can only
// signal with its exit status.
package validate

import (
	"context"
	"fmt"
	"io"
	"strings"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/metrics"
	"igosim/internal/refmodel"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

// Options configures one validation pass.
type Options struct {
	// Suite selects the model zoo ("edge" or "server").
	Suite string
	// Model restricts the pass to a single model; empty runs the whole zoo.
	Model string
	// Verbose emits per-layer progress lines.
	Verbose bool
	// RefCheck replays every residency simulation through the
	// internal/refmodel oracle and demands bit-exact counter agreement.
	RefCheck bool
	// Trace, when non-nil, receives cycle-level events from the residency
	// simulations.
	Trace *trace.Sink
	// Out receives the report; nil discards it.
	Out io.Writer
	// Corrupt and CorruptMulti, when set, mutate each single-core and
	// multi-core simulated result before the oracle comparison. They exist
	// purely for tests: injecting a single-counter corruption proves the
	// differential check actually fails (and names the divergent metric)
	// rather than vacuously passing.
	Corrupt      func(*sim.Result)
	CorruptMulti func(*sim.MultiResult)
}

// shrink caps a dimension so the O(M*K*N) numeric execution stays fast
// while preserving the layer's aspect ratio and tile-edge behaviour.
func shrink(v, cap int) int {
	if v <= cap {
		return v
	}
	// Keep a non-multiple-of-tile remainder to exercise edge tiles.
	return cap + v%7
}

// modelReport is one worker's buffered outcome, printed in zoo order.
type modelReport struct {
	layers, checks int
	refChecks      int
	lines          []string
	// Residency behaviour of the simulated schedules: eviction and
	// spill counts surface scratchpad pressure next to the numeric
	// verdicts (a schedule can be correct yet thrash the SPM).
	spmStats sim.SPMStats
	spills   int64
}

// Run executes the validation pass and returns the first failure in zoo
// order, or an aggregate summary (for the run manifest) with the report
// written to opts.Out. Every summary field is a pure function of the zoo
// and the options — identical at every -j.
func Run(opts Options) (metrics.ValidateSummary, error) {
	var sum metrics.ValidateSummary
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	models, err := workload.AllModels(opts.Suite)
	if err != nil {
		return sum, err
	}
	if opts.Model != "" {
		m, err := workload.FindModel(opts.Suite, opts.Model)
		if err != nil {
			return sum, err
		}
		models = []workload.Model{m}
	}

	// Models fan out through the runner; each worker buffers its own
	// progress lines so the output is printed in zoo order afterwards,
	// identical at every -j. The first failing model (in zoo order) wins.
	cfg := config.SmallNPU()
	reports, err := runner.MapErr(context.Background(), models, func(_ context.Context, m workload.Model) (modelReport, error) {
		return validateModel(cfg, opts, m)
	})
	if err != nil {
		return sum, err
	}

	for i, m := range models {
		rep := reports[i]
		if len(rep.lines) > 0 {
			fmt.Fprintln(out, strings.Join(rep.lines, "\n"))
		}
		fmt.Fprintf(out, "%-10s validated   residency: %d hits, %d misses, %d evictions, %d spills\n",
			m.Abbr, rep.spmStats.Hits, rep.spmStats.Misses, rep.spmStats.Evictions, rep.spills)
		sum.Layers += rep.layers
		sum.Checks += rep.checks
		sum.RefChecks += rep.refChecks
		sum.SPMHits += rep.spmStats.Hits
		sum.SPMMisses += rep.spmStats.Misses
		sum.Evictions += rep.spmStats.Evictions
		sum.Spills += rep.spills
	}
	fmt.Fprintf(out, "\nOK: %d layers, %d schedule executions, gradients bit-match the reference\n", sum.Layers, sum.Checks)
	if opts.RefCheck {
		fmt.Fprintf(out, "OK: %d simulations bit-match the refmodel oracle\n", sum.RefChecks)
	}
	return sum, nil
}

func validateModel(cfg config.NPU, opts Options, m workload.Model) (modelReport, error) {
	var rep modelReport
	for i, l := range m.Layers(2) {
		if l.SkipDX {
			continue
		}
		d := tensor.Dims{M: shrink(l.Dims.M, 64), K: shrink(l.Dims.K, 64), N: shrink(l.Dims.N, 64)}
		tl := schedule.Tiling{
			Tm: min(cfg.ArrayRows/4, d.M),
			Tk: min(16, d.K),
			Tn: min(cfg.ArrayCols/4, d.N),
		}
		p := schedule.TileParams{Dims: d, Tiling: tl, ElemBytes: 4, Layer: 1}

		// Whole-layer schedules: structural check + numeric equivalence.
		for _, s := range []schedule.Schedule{
			schedule.BaselineBackward(p),
			core.InterleaveOnly(p),
			core.InterleaveDXMajor(p),
			core.InterleaveDWMajor(p),
		} {
			if err := schedule.VerifyBackward(p, s.Ops, false); err != nil {
				return rep, fmt.Errorf("%s layer %d (%s) %s: structure: %w", m.Abbr, i, l.Name, s.Name, err)
			}
			if err := core.CheckEquivalence(d, tl, s.Ops, 1e-6); err != nil {
				return rep, fmt.Errorf("%s layer %d (%s) %s: %w", m.Abbr, i, l.Name, s.Name, err)
			}
			res := sim.RunSchedules(cfg, sim.Options{
				Trace:      opts.Trace,
				TraceLabel: m.Abbr + "/" + l.Name + " " + s.Name,
			}, s)
			if opts.Corrupt != nil {
				opts.Corrupt(&res)
			}
			if opts.RefCheck {
				want := refmodel.ReplaySchedules(cfg, refmodel.Options{}, s)
				if err := refmodel.Compare(res, want); err != nil {
					return rep, fmt.Errorf("%s layer %d (%s) %s: refcheck: %w", m.Abbr, i, l.Name, s.Name, err)
				}
				rep.refChecks++
			}
			rep.spmStats.Merge(res.SPM)
			rep.spills += res.Spills
			rep.checks++
		}

		// Partitioned schedules: structural check per partition (each
		// partition is its own sub-GEMM), numeric equivalence on the
		// concatenated stream (the cross-partition reduction happens in
		// the executor's accumulation). Under RefCheck a two-part plan
		// also runs as one shared-scratchpad phase on two cores, checked
		// against the oracle's multi-core replay.
		mcfg := cfg.WithCores(2)
		for _, scheme := range core.Schemes() {
			plan := core.PartitionLayer(p, scheme, 2)
			var ops []schedule.Op
			phase := make([][]schedule.Op, 0, len(plan.Parts))
			for _, sub := range plan.Parts {
				s := core.InterleaveDXMajor(sub)
				if err := schedule.VerifyBackward(sub, s.Ops, false); err != nil {
					return rep, fmt.Errorf("%s layer %d (%s) %v: structure: %w", m.Abbr, i, l.Name, scheme, err)
				}
				ops = append(ops, s.Ops...)
				phase = append(phase, s.Ops)
			}
			if err := core.CheckEquivalence(d, tl, ops, 1e-6); err != nil {
				return rep, fmt.Errorf("%s layer %d (%s) %v: %w", m.Abbr, i, l.Name, scheme, err)
			}
			rep.checks++
			if opts.RefCheck && len(phase) == 2 {
				phases := [][][]schedule.Op{phase}
				res := sim.RunMultiKeyed(mcfg, sim.Options{}, nil, true, func() *schedule.Program { return sim.CompilePhases(phases) })
				if opts.CorruptMulti != nil {
					opts.CorruptMulti(&res)
				}
				want := refmodel.ReplayMulti(mcfg, refmodel.Options{}, phases, true)
				if err := refmodel.CompareMulti(res, want); err != nil {
					return rep, fmt.Errorf("%s layer %d (%s) %v on 2 cores: refcheck: %w", m.Abbr, i, l.Name, scheme, err)
				}
				rep.refChecks++
			}
		}
		rep.layers++
		if opts.Verbose {
			rep.lines = append(rep.lines, fmt.Sprintf("  %s %-24s %-18v ok", m.Abbr, l.Name, d))
		}
	}
	return rep, nil
}
