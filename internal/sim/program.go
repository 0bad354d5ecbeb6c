package sim

import (
	"igosim/internal/config"
	"igosim/internal/schedule"
)

// Standalone compiled programs (DESIGN.md §3k). The pooled compiled path
// (compiled.go) rebuilds its program from the schedule on every call and
// deliberately keeps no reference to it. CompileSchedules and
// CompilePhases instead produce a self-contained Program that a caller
// can hand to RunFamily's member function, RunMultiKeyed's build
// function, ResolveProgram or ExecuteProgram; the two-phase executor
// keeps only the resolved trace, so a program lives as long as its caller
// holds it.

// CompileSchedules lowers at least one kernel into an immutable compiled
// program: each schedule one phase's kernel on core 0, named after the
// schedule, as CompilePhases lowers one-stream phases.
func CompileSchedules(scheds ...schedule.Schedule) *schedule.Program {
	if len(scheds) == 0 {
		panic("sim: no schedules")
	}
	n := 0
	prog := &schedule.Program{Kernels: make([]schedule.Kernel, len(scheds))}
	for i, s := range scheds {
		n += len(s.Ops)
		prog.Kernels[i].Name = s.Name
	}
	prog.Code = make([]schedule.CompiledOp, 0, n)
	schedule.LowerKernels(prog, func(i int) []schedule.Op { return scheds[i].Ops })
	return prog
}

// CompilePhases lowers phases of concurrent per-core op streams — the
// shape refmodel.ReplayMulti replays — into an immutable program for
// RunMultiKeyed: stream i of a phase becomes that phase's kernel on core
// i. One compiler interns tiles across every phase and stream, so a tile
// shared between cores (the duplicated dY of ifmap-sharing partitioning)
// carries one ID everywhere and the shared-residency logic runs on dense
// arrays. Unlike RunSchedules' pooled program, the returned Program owns
// its code and kernels: callers may keep it and execute it concurrently
// from many goroutines (execution state lives in the engine, never in the
// program). Every phase must have at least one stream; empty streams are
// allowed (an idle core).
func CompilePhases(phases [][][]schedule.Op) *schedule.Program {
	if len(phases) == 0 {
		panic("sim: no phases")
	}
	var n int
	var streams [][]schedule.Op
	var kernels []schedule.Kernel
	for _, ph := range phases {
		if len(ph) == 0 {
			panic("sim: no op streams")
		}
		for ci, ops := range ph {
			n += len(ops)
			streams = append(streams, ops)
			kernels = append(kernels, schedule.Kernel{Core: ci})
		}
	}
	prog := &schedule.Program{Code: make([]schedule.CompiledOp, 0, n), Kernels: kernels}
	schedule.LowerKernels(prog, func(i int) []schedule.Op { return streams[i] })
	return prog
}

// Family is one lookup of a program family: the results of its member
// programs under the lookup's cost point. A hit replays the cached traces
// on demand, so members the caller never asks for cost nothing; a miss or
// an uncached run already simulated every member.
type Family struct {
	cfg    config.NPU
	traces []*ResolvedTrace // a hit
	res    []Result         // a miss or an uncached run
}

// Result returns member i's result, bit-identical to executing its
// program on the engine.
func (f Family) Result(i int) Result {
	if f.traces == nil {
		return f.res[i]
	}
	res := f.traces[i].Replay(f.cfg)
	resolvedPhases.Replay()
	countPass(res)
	return res
}

// RunFamily simulates a family of n single-core programs, which member
// builds one at a time, through the two-phase executor — the single-core
// counterpart of RunMultiKeyed. key must be a comparable value that
// determines, up to a renaming of tiles, every member's program; the SPM
// residency capacity and free-dY option complete the cache key here. The
// first lookup of a key builds, resolves and drops each member in turn,
// keeping only the traces; later lookups replay them under cfg's cost
// axes without calling member. member may reuse one program's storage for
// the next: no program is referenced after the next call.
//
// A nil key, a traced call or a disabled cache (budget 0) executes every
// member on the one-shot engine and keeps nothing. A family with a member
// the compact trace cannot represent, or over maxCachedResolvedOps, is
// resolved but not admitted.
func RunFamily(cfg config.NPU, opts Options, key any, n int, member func(i int) *schedule.Program) Family {
	if !cacheable(key, opts) {
		res := make([]Result, n)
		for i := range res {
			res[i], _ = runSingle(cfg, opts, member(i), false)
		}
		return Family{res: res}
	}
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, freeDY: opts.FreeDYOnDW}
	res, traces := runKeyed(rk, n, func(i int) (Result, *ResolvedTrace) {
		return runSingle(cfg, opts, member(i), true)
	})
	if traces != nil {
		return Family{cfg: cfg, traces: traces}
	}
	return Family{res: res}
}

// RunMultiKeyed runs a multi-core program — kernels that are (phase,
// core) ranges, on as many cores as they use — and is the one way a
// multi-core program reaches the engine. Each core owns its systolic
// array and its slice of DRAM bandwidth. The scratchpad is physically
// shared (Section 2.2), but how software uses it differs: conventional
// data parallelism allocates each core's kernel buffers privately
// (shared == false: each core has its own residency set, and a tile one
// core loaded is invisible to the others), whereas the paper's inter-core
// distribution places partition-shared tensors once for all cores
// (shared == true: one residency set over the combined scratchpad, so the
// duplicated dY of ifmap-sharing partitioning, once loaded, hits for
// every core). Residency follows a round-robin merge of each phase's
// kernels. Phases are synchronized kernel boundaries (every core's dX
// kernel, then every core's dW kernel, under data parallelism): the
// scratchpad is flushed between them while per-core pipeline time
// carries across.
//
// key names the run for the two-phase executor, for callers that can name
// it without building it: a comparable value that determines, up to a
// renaming of tiles, the program build returns; the SPM size, core count,
// placement and free-dY option complete the residency key here. The first
// call for a key builds and resolves the program, and nothing of it is
// kept but the trace; later calls replay it under cfg's cost axes without
// calling build. As with RunFamily, a nil key, a traced call or a
// disabled cache (budget 0) runs the program once and keeps nothing, and
// runs over maxCachedResolvedOps are resolved but not admitted. A program
// with a kernel on a core cfg does not have panics.
func RunMultiKeyed(cfg config.NPU, opts Options, key any, shared bool, build func() *schedule.Program) MultiResult {
	if !cacheable(key, opts) {
		out, _ := runMultiProgram(cfg, opts, build(), shared, false)
		return out
	}
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, cores: cfg.Cores, shared: shared, freeDY: opts.FreeDYOnDW}
	res, traces := runKeyed(rk, 1, func(int) (MultiResult, *ResolvedTrace) {
		return runMultiProgram(cfg, opts, build(), shared, true)
	})
	if traces == nil {
		return res[0]
	}
	out := traces[0].replayMulti(cfg)
	resolvedPhases.Replay()
	countMulti(out)
	return out
}

// cacheable reports whether a run under key goes through the trace cache:
// it must be keyed, untraced (a trace carries no event stream) and the
// cache enabled.
func cacheable(key any, opts Options) bool {
	return key != nil && opts.Trace == nil && resolvedCache.Cap() > 0
}

// runKeyed is the two-phase executor's one lookup sequence for a
// cacheable key of n traces, a single-flight lookup in resolvedCache. A
// hit returns the cached traces and runs nothing. A miss on a key another
// caller is resolving waits for it and returns its traces; if they were
// not admissible, the waiter resolves the key itself. Any other miss
// leads: it counts the key into the census, runs every member recording
// its trace, and admits the traces when every one is representable and
// within maxCachedResolvedOps.
func runKeyed[R any](rk resolvedKey, n int, resolve func(i int) (R, *ResolvedTrace)) ([]R, []*ResolvedTrace) {
	hit, wait, lead := resolvedCache.Lookup(rk)
	switch {
	case wait == nil:
		return nil, hit
	case !lead:
		if traces := <-wait; traces != nil {
			return nil, traces
		}
		res, _ := resolveAll(n, resolve)
		return res, nil
	}
	var traces []*ResolvedTrace
	// Deferred, so that a panicking leader still releases its waiters.
	defer func() { resolvedCache.Finish(rk, traces, traces != nil) }()
	resolvedCensus.Add(rk, n)
	var res []R
	res, traces = resolveAll(n, resolve)
	return res, nil
}

// resolveAll runs every member of a family, recording its trace, and
// returns the traces too when every one is representable and within
// maxCachedResolvedOps.
func resolveAll[R any](n int, resolve func(i int) (R, *ResolvedTrace)) ([]R, []*ResolvedTrace) {
	traces := make([]*ResolvedTrace, n)
	res := make([]R, n)
	admit := true
	for i := range res {
		res[i], traces[i] = resolve(i)
		resolvedPhases.Resolution()
		admit = admit && traces[i] != nil && traces[i].Ops() <= maxCachedResolvedOps
	}
	if !admit {
		return res, nil
	}
	return res, traces
}

// ExecuteProgram runs prog once on a pooled single-core compiled engine and
// keeps nothing: no resolved trace, and no reference to the program.
func ExecuteProgram(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	res, _ := runSingle(cfg, opts, prog, false)
	return res
}
