package sim

// Phases (DESIGN.md §3l). A single-core program runs its kernels as
// phases, flushing the scratchpad between them (CompiledEngine.Execute),
// so each phase's residency — its traffic, hits, misses, evictions and
// spills — is that of the kernel run alone on a cold engine. Only
// pipeline time crosses a phase boundary, and the engine's double-buffered
// pipeline is a max-plus linear system: its state after an op is a pair
// (when the DMA stage may start the next transfer, when the compute stage
// is done), and the op maps the pair to the next by maxima of sums. A
// run's effect on that pair is therefore a small transfer, and
// ComposePhases folds the kernels' runs into the exact Result the engine
// returns for the whole program, without running it.

// pipeState is the pipeline state an op leaves for the next: when the DMA
// stage may start the next transfer (the later of the last transfer's end
// and the end of the compute before the last, prefetch depth 2), and when
// the compute stage is done.
type pipeState struct{ dma, comp int64 }

// advance steps s over one op of mem DMA and comp compute cycles: the
// recurrence of CompiledEngine.step.
//
//lint:hotpath
func (s *pipeState) advance(mem, comp int64) {
	s.dma = max(s.dma+mem, s.comp)
	s.comp = s.dma + comp
}

// transfer is a single-core run's max-plus pipeline transfer: what the
// run does to the state it starts from. Its first op, of lead DMA cycles,
// leaves (x, x+c) from any state s, where x = max(s.dma+lead, s.comp) and
// c is the op's own compute, and the recurrence commutes with shifting
// both clocks alike. So the run ends in the state it ends in from the
// cold pipeline (0, 0), which is its own, shifted by x − lead. (Run from
// the two unit states (0, −∞) and (−∞, 0), the recurrence gives the same
// four numbers: the exit from the second is the cold exit less lead.)
type transfer struct {
	exit pipeState // from the cold pipeline
	lead int64     // the first op's DMA cycles; −1 for a run of no ops
}

// apply returns the state the run ends in when it starts from s.
func (t transfer) apply(s pipeState) pipeState {
	if t.lead < 0 {
		return s
	}
	d := max(s.dma+t.lead, s.comp) - t.lead
	return pipeState{dma: t.exit.dma + d, comp: t.exit.comp + d}
}

// Phase is one kernel's single-core run as a phase of a longer program:
// its Result from a cold engine, and its pipeline transfer.
type Phase struct {
	Res  Result
	xfer transfer
}

// ComposePhases returns the Result the engine produces for a single-core
// program that runs the phases' kernels in order, the scratchpad flushed
// between them: every count adds up, and the makespan folds the phases'
// transfers from a cold pipeline.
func ComposePhases(phases []Phase) Result {
	var res Result
	var s pipeState
	for i := range phases {
		res.Add(phases[i].Res)
		s = phases[i].xfer.apply(s)
	}
	res.Cycles = s.comp
	return res
}
