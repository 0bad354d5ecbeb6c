package sim

import (
	"igosim/internal/config"
	"igosim/internal/runner"
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
	phases []Phase          // a miss or an uncached run
}

// Result returns member i's result, bit-identical to executing its
// program on the engine.
func (f Family) Result(i int) Result { return f.Phase(i).Res }

// Phase returns member i's run as a phase of a longer single-core program
// (ComposePhases): its result with its pipeline transfer, replayed on a
// hit.
func (f Family) Phase(i int) Phase {
	if f.traces == nil {
		return f.phases[i]
	}
	ph := f.traces[i].replayPhase(f.cfg)
	resolvedPhases.Replay()
	countPass(ph.Res)
	return ph
}

// Replayed reports whether the lookup replays cached traces: no member
// ran for it, so each Result and Phase is a replay.
func (f Family) Replayed() bool { return f.traces != nil }

// RunFamily simulates a family of n single-core programs, which member
// builds, through the two-phase executor — the single-core counterpart of
// RunMultiKeyed. key must be a comparable value that determines, up to a
// renaming of tiles, every member's program; the SPM residency capacity
// and free-dY option complete the cache key here. The first lookup of a
// key builds, resolves and drops every member, keeping only the traces;
// later lookups replay them under cfg's cost axes without calling member.
//
// Members run in parallel on the runner's worker budget (runner.Map), so
// member may be called from several goroutines at once, once per member,
// and must return a program of member i's own, which may share read-only
// storage such as one op table with the others. Once a member's program
// has run, RunFamily calls its Release, if set, and references it no
// more. A traced family runs its members one after another, so their
// trace tracks open in member order.
//
// A nil key, a traced call or a disabled cache (budget 0) executes every
// member on the one-shot engine and keeps nothing. A family with a member
// the compact trace cannot represent, or over maxCachedResolvedOps, is
// resolved but not admitted.
func RunFamily(cfg config.NPU, opts Options, key any, n int, member func(i int) *schedule.Program) Family {
	if !cacheable(key, opts) {
		return Family{phases: runMembers(n, opts.Trace == nil, func(i int) Phase {
			ph, _ := runMember(cfg, opts, member, i, false)
			return ph
		})}
	}
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, freeDY: opts.FreeDYOnDW}
	hit, wait, lead := resolvedCache.Lookup(rk)
	if wait == nil {
		return Family{cfg: cfg, traces: hit}
	}
	phases, traces := runKeyed(rk, n, wait, lead, func(i int) (Phase, *ResolvedTrace) {
		return runMember(cfg, opts, member, i, true)
	})
	if traces != nil {
		return Family{cfg: cfg, traces: traces}
	}
	return Family{phases: phases}
}

// runMember builds member i of a family, runs it on a pooled engine,
// recording its trace when record is set, and releases it.
func runMember(cfg config.NPU, opts Options, member func(i int) *schedule.Program, i int, record bool) (Phase, *ResolvedTrace) {
	prog := member(i)
	ph, rt := runSingle(cfg, opts, prog, record)
	release(prog)
	return ph, rt
}

// runMembers returns run(i) for every member i of a family of n: through
// runner.Map when parallel, else, or when there is one member to run (a
// plan's program), one after another on the caller.
func runMembers[R any](n int, parallel bool, run func(i int) R) []R {
	if !parallel || n == 1 {
		out := make([]R, n)
		for i := range out {
			out[i] = run(i)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return runner.Map(idx, run)
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
// runs over maxCachedResolvedOps are resolved but not admitted; once the
// program has run, RunMultiKeyed calls its Release, if set. A program
// with a kernel on a core cfg does not have panics.
func RunMultiKeyed(cfg config.NPU, opts Options, key any, shared bool, build func() *schedule.Program) MultiResult {
	if !cacheable(key, opts) {
		out, _ := runMultiProgram(cfg, opts, build, shared, false)
		return out
	}
	rk := resolvedKey{key: key, capacity: cfg.SPMBytes / 2, cores: cfg.Cores, shared: shared, freeDY: opts.FreeDYOnDW}
	traces, wait, lead := resolvedCache.Lookup(rk)
	if wait != nil {
		var res []MultiResult
		res, traces = runKeyed(rk, 1, wait, lead, func(int) (MultiResult, *ResolvedTrace) {
			return runMultiProgram(cfg, opts, build, shared, true)
		})
		if traces == nil {
			return res[0]
		}
	}
	out := traces[0].replayMulti(cfg)
	resolvedPhases.Replay()
	countMulti(out)
	return out
}

// release calls the Release of prog, a program a caller's builder
// returned, once it has run.
func release(prog *schedule.Program) {
	if prog.Release != nil {
		prog.Release()
	}
}

// cacheable reports whether a run under key goes through the trace cache:
// it must be keyed, untraced (a trace carries no event stream) and the
// cache enabled.
func cacheable(key any, opts Options) bool {
	return key != nil && opts.Trace == nil && resolvedCache.Cap() > 0
}

// runKeyed is the rest of the two-phase executor's one lookup sequence
// for a cacheable key of n traces, after a resolvedCache lookup that did
// not hit: its wait and lead. (Callers look the key up themselves, so
// that a hit builds no resolve closure.) A miss on a key another caller is
// resolving waits for it, lending its worker slot to the leader's fan-out
// (runner.Await), and returns its traces; if they were not admissible,
// the waiter resolves the key itself. Any other miss leads: it counts the
// key into the census, resolves every member, recording its trace, and
// admits the traces when every one is representable and within
// maxCachedResolvedOps.
func runKeyed[R any](rk resolvedKey, n int, wait <-chan []*ResolvedTrace, lead bool, resolve func(i int) (R, *ResolvedTrace)) ([]R, []*ResolvedTrace) {
	if !lead {
		if traces, _ := runner.Await(wait); traces != nil {
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

// resolved is one member's resolution: its result and its trace, nil
// when the run was not representable.
type resolved[R any] struct {
	res   R
	trace *ResolvedTrace
}

// resolveAll resolves every member of a family in parallel (runMembers),
// recording each trace, and returns the traces too when every one is
// representable and within maxCachedResolvedOps.
func resolveAll[R any](n int, resolve func(i int) (R, *ResolvedTrace)) ([]R, []*ResolvedTrace) {
	members := runMembers(n, true, func(i int) resolved[R] {
		res, rt := resolve(i)
		resolvedPhases.Resolution()
		return resolved[R]{res, rt}
	})
	res := make([]R, n)
	traces := make([]*ResolvedTrace, n)
	admit := true
	for i, m := range members {
		res[i], traces[i] = m.res, m.trace
		admit = admit && m.trace != nil && m.trace.Ops() <= maxCachedResolvedOps
	}
	if !admit {
		return res, nil
	}
	return res, traces
}

// ExecuteProgram runs prog once on a pooled single-core compiled engine and
// keeps nothing: no resolved trace, and no reference to the program.
func ExecuteProgram(cfg config.NPU, opts Options, prog *schedule.Program) Result {
	ph, _ := runSingle(cfg, opts, prog, false)
	return ph.Res
}
