package sim

import (
	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
)

// Standalone compiled programs (DESIGN.md §3k). The pooled compiled path
// (compiled.go) rebuilds its program from the schedule on every call and
// deliberately keeps no reference to it. CompileSchedules instead produces
// a self-contained Program that a caller can hand to RunFamily's member
// function, ResolveProgram or ExecuteProgram; the two-phase executor keeps
// only the resolved trace, so a program lives as long as its caller holds
// it.

// CompileSchedules lowers the given kernels into an immutable compiled
// program. Unlike the internal pooled path, the returned Program owns its
// code, kernel and tile-table storage: callers may keep it and execute it
// concurrently from many goroutines (execution state lives in the engine,
// never in the program).
func CompileSchedules(scheds ...schedule.Schedule) *schedule.Program {
	var n int
	for _, s := range scheds {
		n += len(s.Ops)
	}
	prog := &schedule.Program{
		Code:    make([]schedule.CompiledOp, 0, n),
		Kernels: make([]schedule.Kernel, 0, len(scheds)),
	}
	comp := retainedCompilers.Get()
	comp.Reset()
	for _, s := range scheds {
		comp.AppendKernel(prog, s.Name, 0, s.Ops)
	}
	prog.Table = comp.DetachTable()
	retainedCompilers.Put(comp)
	return prog
}

// retainedCompilers pools the compilers behind CompileSchedules: the probe
// table (grown once to the largest program seen) is reused across the
// thousands of candidate-program compilations a tuning sweep performs,
// while each program's code and detached key storage remain owned by the
// program.
var retainedCompilers = runner.NewPool(schedule.NewCompiler)

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
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, freeDY: opts.FreeDYOnDW}
	res, traces := runKeyed(rk, opts, n, func(i int, record bool) (Result, *ResolvedTrace) {
		return runSingle(cfg, opts, member(i), record)
	})
	if traces != nil {
		return Family{cfg: cfg, traces: traces}
	}
	return Family{res: res}
}

// RunMultiKeyed runs a multi-core program — kernels that are (phase,
// core) ranges, on as many cores as they use — through the two-phase
// executor, for callers that can name the run without building it. key
// must be a comparable value that determines, up to a renaming of tiles,
// the program build returns; the SPM size, core count, placement and
// free-dY option complete the residency key here. The first call for a
// key builds and resolves the program, and nothing of it is kept but the
// trace; later calls replay it under cfg's cost axes without calling
// build. As with RunFamily, a nil key, a traced call or a disabled cache
// (budget 0) runs the program once and keeps nothing, and runs over
// maxCachedResolvedOps are resolved but not admitted. A program with a
// kernel on a core cfg does not have panics.
func RunMultiKeyed(cfg config.NPU, opts Options, key any, shared bool, build func() *schedule.Program) MultiResult {
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, cores: cfg.Cores, shared: shared, freeDY: opts.FreeDYOnDW}
	res, traces := runKeyed(rk, opts, 1, func(_ int, record bool) (MultiResult, *ResolvedTrace) {
		return runMultiProgram(cfg, opts, build(), shared, record)
	})
	if traces == nil {
		return res[0]
	}
	out := traces[0].ReplayMulti(cfg)
	resolvedPhases.Replay()
	countMulti(out)
	return out
}

// runKeyed is the two-phase executor's one lookup sequence for a key of n
// traces. A nil key, a traced call or a disabled cache runs every member
// once without recording. Otherwise a hit returns the cached traces and
// runs nothing; a miss counts the key into the census, runs and records
// every member, and admits the traces when every one is representable and
// within maxCachedResolvedOps.
func runKeyed[R any](rk resolvedKey, opts Options, n int, run func(i int, record bool) (R, *ResolvedTrace)) ([]R, []*ResolvedTrace) {
	cached := rk.key != nil && opts.Trace == nil && resolvedCache.Cap() > 0
	var traces []*ResolvedTrace
	if cached {
		if hit, ok := resolvedCache.Get(rk); ok {
			return nil, hit
		}
		resolvedCensus.Add(rk, n)
		traces = make([]*ResolvedTrace, n)
	}
	res := make([]R, n)
	admit := cached
	for i := range res {
		var rt *ResolvedTrace
		res[i], rt = run(i, cached)
		if cached {
			traces[i] = rt
			resolvedPhases.Resolution()
			admit = admit && rt != nil && rt.Ops() <= maxCachedResolvedOps
		}
	}
	if admit {
		resolvedCache.Put(rk, traces)
	}
	return res, nil
}

// ExecuteProgram runs prog once on a pooled single-core compiled engine and
// keeps nothing: no resolved trace, and no reference to the program.
func ExecuteProgram(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	res, _ := runSingle(cfg, opts, prog, false)
	return res
}
