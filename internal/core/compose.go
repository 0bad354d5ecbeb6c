package core

import (
	"fmt"
	"slices"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/sim"
)

// Composed single-core plans (DESIGN.md §3l). A single-core plan runs
// each kernel as a phase, the scratchpad flushed between phases, so a
// phase's counts are its kernel's run alone on the part's canonical shape
// (tuneParams) — the run its tuner made as a family member — with a
// partial output's writes moved to the accumulator class, and only
// pipeline time crosses a phase boundary (sim.ComposePhases). Tune values
// keep their winners' phases when their families ran; a tuning that
// replayed cached traces keeps none, and the plan reads its member back
// from the family, a trace-cache hit. Traced plans (a sink needs the
// engine's events), free-dY plans (the tuners run without the option) and
// multi-core plans (whose parts share one scratchpad) run planProgram.

// composes reports whether a plan run under opts, on one core unless
// multi, is composed from its tuners' runs.
func composes(opts sim.Options, multi bool) bool {
	return !multi && opts.Trace == nil && !opts.FreeDYOnDW
}

// composePlan returns the result the engine produces for planProgram's
// single-core program of parts, part i running kernels[i]: the parts'
// kernels phase-major, each phase the kernel's tuned run. Equal parts
// running equal kernels share one phase, and a one-phase plan is its
// kernel's run as it stands.
func composePlan(cfg config.NPU, parts []schedule.TileParams, kernels []partKernels) sim.Result {
	type run struct {
		np schedule.TileParams
		r  recipe
		ph sim.Phase
	}
	// Plans have a few parts: room for four parts' baseline pairs.
	var runBuf [8]run
	var phaseBuf [8]sim.Phase
	runs, phases := runBuf[:0], phaseBuf[:0]
	for k := range len(partKernels{}) {
		for i, ks := range kernels {
			r := ks[k]
			if r.kind == noKernel {
				continue
			}
			np := tuneParams(parts[i])
			j := slices.IndexFunc(runs, func(u run) bool { return u.np == np && u.r == r })
			if j < 0 {
				runs = append(runs, run{np: np, r: r, ph: kernelPhase(cfg, parts[i], r)})
				j = len(runs) - 1
			}
			ph := runs[j].ph
			relabel(&ph.Res.Traffic, parts[i])
			phases = append(phases, ph)
		}
	}
	if len(phases) == 1 {
		return phases[0].Res
	}
	return sim.ComposePhases(phases)
}

// relabel moves the final output writes of p's partial outputs in tr to
// the accumulator class: a tuner runs the canonical shape, whose outputs
// are final.
func relabel(tr *dram.Traffic, p schedule.TileParams) {
	if p.DXPartial {
		tr.Write[dram.ClassAcc] += tr.Write[dram.ClassDX]
		tr.Write[dram.ClassDX] = 0
	}
	if p.DWPartial {
		tr.Write[dram.ClassAcc] += tr.Write[dram.ClassDW]
		tr.Write[dram.ClassDW] = 0
	}
}

// kernelPhase returns kernel r's run on p's canonical shape under cfg as
// a plan phase: the phase r's tuner kept, or else r's member of the
// tuner's family read back.
func kernelPhase(cfg config.NPU, p schedule.TileParams, r recipe) sim.Phase {
	single := cfg
	single.Cores = 1
	np := tuneParams(p)
	var fam family
	var kernels []recipe
	var kept *sim.Phase
	switch r.kind {
	case kBaselineDX, kBaselineDW, kDWOnly:
		t := baselineTune(cfg, p)
		fam, kernels = famBaseline, baselineFamily(dxCandidates(np), dwCandidates(np))
		switch {
		case t.phases == nil:
		case r.kind == kBaselineDX && r.dx == t.dx:
			kept = &t.phases[0]
		case r.kind != kBaselineDX && r.dw == t.dw:
			kept = &t.phases[1]
		}
		if r.kind == kDWOnly {
			// A dW-only kernel walks its family's baseline-dW member.
			r.kind = kBaselineDW
		}
	case kInterleave:
		t := interleaveTune(cfg, p)
		fam, kernels = famMerge, mergeCandidates(np)
		if t.kernel == r {
			kept = t.phase
		}
	case kDXMajor, kDWMajor:
		t := orderTune(cfg, p)
		fam, kernels = famMajor, majorFamily(single, np)
		if i := int(r.kind - kDXMajor); t.majors != nil && kernels[i] == r {
			kept = &t.majors[i]
		}
	default:
		panic(fmt.Sprintf("core: kernel kind %d has no tuner", r.kind))
	}
	if kept != nil {
		return *kept
	}
	i := slices.Index(kernels, r)
	if i < 0 {
		panic(fmt.Sprintf("core: kernel %+v is no member of its tuner's family", r))
	}
	return runFamily(single, np, fam, kernels).Phase(i)
}
