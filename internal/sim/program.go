package sim

import (
	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
)

// Retained compiled programs (DESIGN.md §3k). The pooled compiled path
// (compiled.go) rebuilds its program from the schedule on every call and
// deliberately keeps no reference to it — the right trade for one-shot
// experiment grids. Long-running callers (the serving layer's shared
// program cache) instead need to pay schedule emission and interning once
// and replay the artifact many times, possibly under different DRAM/clock
// timings: CompileSchedules produces a self-contained Program safe to
// retain and share across goroutines, and RunProgram executes one against
// a pooled engine exactly as RunSchedules would have.

// CompileSchedules lowers the given kernels into a retained, immutable
// compiled program. Unlike the internal pooled path, the returned Program
// owns its code, kernel and tile-table storage: callers may cache it
// indefinitely and execute it concurrently from many goroutines (execution
// state lives in the engine, never in the program).
func CompileSchedules(scheds ...schedule.Schedule) *schedule.Program {
	comp := retainedCompilers.Get()
	comp.Reset()
	var n int
	for _, s := range scheds {
		n += len(s.Ops)
	}
	code := make([]schedule.CompiledOp, 0, n)
	kernels := make([]schedule.Kernel, 0, len(scheds))
	for _, s := range scheds {
		start := len(code)
		for i := range s.Ops {
			code = append(code, comp.Lower(&s.Ops[i]))
		}
		kernels = append(kernels, schedule.Kernel{Name: s.Name, Start: start, End: len(code)})
	}
	prog := &schedule.Program{Code: code, Kernels: kernels, Table: comp.DetachTable()}
	retainedCompilers.Put(comp)
	return prog
}

// retainedCompilers pools the compilers behind CompileSchedules: the probe
// table (grown once to the largest program seen) is reused across the
// thousands of candidate-program compilations a tuning sweep performs,
// while each program's code and detached key storage remain owned by the
// retained program.
var retainedCompilers = runner.NewPool(schedule.NewCompiler)

// RunProgram executes a retained compiled program on a fresh single-core
// engine, flushing the scratchpad at each kernel boundary — the compiled
// twin of RunSchedules for a program built once with CompileSchedules. The
// program is read-only here; concurrent RunProgram calls on the same
// program are safe.
//
// Untraced calls go through two-phase execution (resolved.go): the first
// call for a (program, SPM capacity, free-dY) key resolves the residency
// trace, later calls replay it under whatever cost axes cfg carries —
// bit-identical to the engine, held by the replay-equivalence proptest and
// the replay-check gate. Traced calls, disabled caches (capacity 0) and
// programs over maxCachedResolvedOps take ExecuteProgram's one-shot path.
func RunProgram(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	if opts.Trace == nil && resolvedCache.Cap() > 0 && len(prog.Code) <= maxCachedResolvedOps {
		key := resolvedKey{prog: prog, capacity: cfg.SPMBytes / 2, freeDY: opts.FreeDYOnDW}
		if rt, ok := resolvedCache.Get(key); ok {
			res := rt.Replay(cfg)
			resolvedPhases.Replay()
			countPass(res)
			return res
		}
		resolvedCensus.add(key)
		res, rt := ResolveProgram(cfg, opts, prog)
		resolvedPhases.Resolution()
		if rt != nil {
			resolvedCache.Put(key, rt)
		}
		return res
	}
	return ExecuteProgram(cfg, opts, prog)
}

// RunMultiKeyed is RunMultiPhased through the two-phase executor, for
// callers that can name a multi-core run without building it. key must be
// a comparable value that determines, up to a renaming of tiles, the
// phases emit returns; the SPM size, core count, placement and free-dY
// option complete the residency key here. The first call for a key emits,
// compiles and resolves the phases, and nothing of them is kept but the
// trace; later calls replay it under cfg's cost axes without calling emit.
// Traced calls and a disabled cache (capacity 0) run RunMultiPhased, and
// runs over maxCachedResolvedOps are resolved but not admitted.
func RunMultiKeyed(cfg config.NPU, opts Options, key any, shared bool, emit func() [][][]schedule.Op) MultiResult {
	if opts.Trace != nil || resolvedCache.Cap() == 0 {
		return RunMultiPhased(cfg, opts, emit(), shared)
	}
	rk := resolvedKey{phases: key, capacity: cfg.SPMBytes / 2, cores: cfg.Cores, shared: shared, freeDY: opts.FreeDYOnDW}
	if rt, ok := resolvedCache.Get(rk); ok {
		res := rt.ReplayMulti(cfg)
		resolvedPhases.Replay()
		countMulti(res)
		return res
	}
	resolvedCensus.add(rk)
	res, rt := ResolveMulti(cfg, opts, emit(), shared)
	resolvedPhases.Resolution()
	if rt != nil && rt.Ops() <= maxCachedResolvedOps {
		resolvedCache.Put(rk, rt)
	}
	return res
}

// ExecuteProgram runs prog once on a pooled single-core compiled engine and
// keeps nothing: no resolved trace, and no reference to the program. It is
// the path for programs that must never key the residency cache, such as
// a tuner's transient candidates, whose pointers die with the tuning call.
func ExecuteProgram(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	cr := compiledPool.Get()
	res := cr.execute(cfg, opts, prog)
	compiledPool.Put(cr)
	countPass(res)
	return res
}
