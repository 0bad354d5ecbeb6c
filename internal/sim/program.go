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
	if key == nil || opts.Trace != nil || resolvedCache.Cap() == 0 {
		res := make([]Result, n)
		for i := range res {
			res[i] = ExecuteProgram(cfg, opts, member(i))
		}
		return Family{res: res}
	}
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, freeDY: opts.FreeDYOnDW}
	if traces, ok := resolvedCache.Get(rk); ok {
		return Family{cfg: cfg, traces: traces}
	}
	resolvedCensus.Add(rk, n)
	res := make([]Result, n)
	traces := make([]*ResolvedTrace, n)
	admit := true
	for i := range res {
		res[i], traces[i] = ResolveProgram(cfg, opts, member(i))
		resolvedPhases.Resolution()
		admit = admit && traces[i] != nil && traces[i].Ops() <= maxCachedResolvedOps
	}
	if admit {
		resolvedCache.Put(rk, traces)
	}
	return Family{res: res}
}

// RunMultiKeyed is RunMultiPhased through the two-phase executor, for
// callers that can name a multi-core run without building it. key must be
// a comparable value that determines, up to a renaming of tiles, the
// phases emit returns; the SPM size, core count, placement and free-dY
// option complete the residency key here. The first call for a key emits,
// compiles and resolves the phases, and nothing of them is kept but the
// trace; later calls replay it under cfg's cost axes without calling emit.
// Traced calls and a disabled cache (budget 0) run RunMultiPhased, and
// runs over maxCachedResolvedOps are resolved but not admitted.
func RunMultiKeyed(cfg config.NPU, opts Options, key any, shared bool, emit func() [][][]schedule.Op) MultiResult {
	if opts.Trace != nil || resolvedCache.Cap() == 0 {
		return RunMultiPhased(cfg, opts, emit(), shared)
	}
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, cores: cfg.Cores, shared: shared, freeDY: opts.FreeDYOnDW}
	if traces, ok := resolvedCache.Get(rk); ok {
		res := traces[0].ReplayMulti(cfg)
		resolvedPhases.Replay()
		countMulti(res)
		return res
	}
	resolvedCensus.Add(rk, 1)
	res, rt := ResolveMulti(cfg, opts, emit(), shared)
	resolvedPhases.Resolution()
	if rt != nil && rt.Ops() <= maxCachedResolvedOps {
		resolvedCache.Put(rk, []*ResolvedTrace{rt})
	}
	return res
}

// ExecuteProgram runs prog once on a pooled single-core compiled engine and
// keeps nothing: no resolved trace, and no reference to the program.
func ExecuteProgram(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	cr := compiledPool.Get()
	res := cr.execute(cfg, opts, prog)
	compiledPool.Put(cr)
	countPass(res)
	return res
}
