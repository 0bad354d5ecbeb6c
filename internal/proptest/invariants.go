package proptest

import (
	"bytes"
	"fmt"
	"reflect"

	"igosim/internal/analytic"
	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dram"
	"igosim/internal/refmodel"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/trace"
)

// Invariant is one property every generated case must satisfy. The check
// returns a descriptive error naming the violated relation; the runner
// attaches the (shrunk) case.
type Invariant struct {
	Name  string
	Check func(Case) error
}

// Invariants returns the differential property suite. Ordering is by cost:
// the cheap structural checks run first so a shrink loop on a structural
// failure never pays for simulations.
func Invariants() []Invariant {
	return []Invariant{
		{"structure", CheckStructure},
		{"oracle", CheckOracle},
		{"multi-oracle", CheckMultiOracle},
		{"compiled-equivalence", CheckCompiledEquivalence},
		{"resolved-replay", CheckResolvedReplay},
		{"permuted-program", CheckPermutedProgram},
		{"multi-replay", CheckMultiReplay},
		{"cycle-bounds", CheckCycleBounds},
		{"conservation", CheckConservation},
		{"partition", CheckPartition},
		{"dy-reuse", CheckDYReuse},
		{"analytic-bounds", CheckAnalyticBounds},
	}
}

// CheckStructure verifies the generated schedule variant is a well-formed
// backward pass: the stream passes schedule.VerifyBackward and numerically
// reproduces the reference gradients (every variant is a pure reordering of
// the same tile operations).
func CheckStructure(c Case) error {
	ops := c.AllOps()
	if len(ops) == 0 {
		return fmt.Errorf("variant produced an empty stream")
	}
	if err := schedule.VerifyBackward(c.Params(), ops, false); err != nil {
		return err
	}
	return core.CheckEquivalence(c.Dims, c.Tiling, ops, 1e-8)
}

// CheckOracle replays the case's kernel stream through the internal/refmodel
// interpreter and demands bit-exact agreement with internal/sim on every
// counter: cycles, per-class traffic, residency stats and spills. Both the
// default engine semantics and the Section 3.3 free-dY limit study are
// compared.
func CheckOracle(c Case) error {
	cfg := c.Config()
	scheds := c.Schedules()
	for _, free := range []bool{false, true} {
		got := sim.RunSchedules(cfg, sim.Options{FreeDYOnDW: free}, scheds...)
		want := refmodel.ReplaySchedules(cfg, refmodel.Options{FreeDYOnDW: free}, scheds...)
		if err := refmodel.Compare(got, want); err != nil {
			return fmt.Errorf("freeDY=%v: %w", free, err)
		}
	}
	return nil
}

// CheckMultiOracle holds the multi-core engine to the oracle: on the case's
// multi-core workload (MultiPhases), a one-shot run (runPhases) must equal
// refmodel.ReplayMulti on every counter — makespan, cross-core hits,
// aggregate traffic and each core's result — for shared and private
// scratchpad placement in both dY regimes.
func CheckMultiOracle(c Case) error {
	cfg := c.MultiConfig()
	phases := c.MultiPhases()
	for _, shared := range []bool{true, false} {
		for _, free := range []bool{false, true} {
			got := runPhases(cfg, sim.Options{FreeDYOnDW: free}, phases, shared)
			want := refmodel.ReplayMulti(cfg, refmodel.Options{FreeDYOnDW: free}, phases, shared)
			if err := refmodel.CompareMulti(got, want); err != nil {
				return fmt.Errorf("shared=%v freeDY=%v: %w", shared, free, err)
			}
		}
	}
	return nil
}

// runPhases lowers phases with sim.CompilePhases and runs the program
// once through sim.RunMultiKeyed, without a key.
func runPhases(cfg config.NPU, opts sim.Options, phases [][][]schedule.Op, shared bool) sim.MultiResult {
	return sim.RunMultiKeyed(cfg, opts, nil, shared, func() *schedule.Program { return sim.CompilePhases(phases) })
}

// CheckCompiledEquivalence holds the engine's entry points together and to
// the oracle (DESIGN.md §3g): for every generated case and both free-dY
// modes, RunSchedules (pooled lowering), ExecuteProgram on a retained
// CompileSchedules program, and a CompiledEngine bound to a second one
// must produce identical Results, and the refmodel oracle must agree with
// them on every counter. The entry-point comparison is full-struct
// equality; the oracle comparison reuses refmodel's field-by-field diff
// for readable failures.
func CheckCompiledEquivalence(c Case) error {
	cfg := c.Config()
	scheds := c.Schedules()
	retained := sim.CompileSchedules(scheds...)
	prog := sim.CompileSchedules(scheds...)
	for _, free := range []bool{false, true} {
		opts := sim.Options{FreeDYOnDW: free}
		pooled := sim.RunSchedules(cfg, opts, scheds...)
		if got := sim.ExecuteProgram(cfg, opts, retained); !reflect.DeepEqual(got, pooled) {
			return fmt.Errorf("freeDY=%v: retained program %+v != RunSchedules %+v", free, got, pooled)
		}
		e := sim.NewCompiledEngine(cfg, opts)
		e.RunProgram(prog)
		if got := e.Result(); !reflect.DeepEqual(got, pooled) {
			return fmt.Errorf("freeDY=%v: bound engine %+v != RunSchedules %+v", free, got, pooled)
		}
		want := refmodel.ReplaySchedules(cfg, refmodel.Options{FreeDYOnDW: free}, scheds...)
		if err := refmodel.Compare(pooled, want); err != nil {
			return fmt.Errorf("freeDY=%v: engine vs oracle: %w", free, err)
		}
	}
	return nil
}

// costVariants returns hardware points that re-price the base case's op
// stream without touching emission (ElemBytes), residency (SPMBytes) or
// partitioning (Cores): DRAM bandwidth, burst latency, the clock, and the
// array-timing axes. These are exactly the axes a resolved trace claims
// invariance over, so each variant must replay bit-exactly from a trace
// resolved at the base point.
func costVariants(base config.NPU) []config.NPU {
	wide := base
	wide.DRAMBandwidth *= 2
	slow := base
	slow.DRAMLatency += 7
	slow.DRAMBandwidth = max(1e9, base.DRAMBandwidth/3)
	clocked := base
	clocked.DRAMLatency = 0
	clocked.FrequencyHz = base.FrequencyHz / 2
	swapped := base
	swapped.ArrayRows, swapped.ArrayCols = base.ArrayCols, base.ArrayRows
	if swapped.Dataflow == config.OutputStationary {
		swapped.Dataflow = config.WeightStationary
	} else {
		swapped.Dataflow = config.OutputStationary
	}
	return []config.NPU{wide, slow, clocked, swapped}
}

// CheckResolvedReplay is the two-phase execution property (DESIGN.md §3l):
// a trace resolved once at a base hardware point must replay bit-exactly —
// full Result equality — at every cost variant, agreeing with both a fresh
// one-shot engine run and the refmodel oracle at that variant, in both
// dY regimes. This is what licenses the sweep and serving layers to pay
// residency resolution once per (program, capacity, policy) key and
// re-price the trace thousands of times.
func CheckResolvedReplay(c Case) error {
	base := c.Config()
	scheds := c.Schedules()
	prog := sim.CompileSchedules(scheds...)
	for _, free := range []bool{false, true} {
		opts := sim.Options{FreeDYOnDW: free}
		_, rt := sim.ResolveProgram(base, opts, prog)
		if rt == nil {
			return fmt.Errorf("freeDY=%v: resolution yielded no trace", free)
		}
		for vi, cfg := range costVariants(base) {
			replayed := rt.Replay(cfg)
			engine, _ := sim.ResolveProgram(cfg, opts, prog)
			if !reflect.DeepEqual(replayed, engine) {
				return fmt.Errorf("freeDY=%v variant %d: replay %+v != engine %+v", free, vi, replayed, engine)
			}
			want := refmodel.ReplaySchedules(cfg, refmodel.Options{FreeDYOnDW: free}, scheds...)
			if err := refmodel.Compare(replayed, want); err != nil {
				return fmt.Errorf("freeDY=%v variant %d: replay vs oracle: %w", free, vi, err)
			}
		}
	}
	return nil
}

// CheckPermutedProgram is the schedule.Program.Order property: a program
// that runs its code through an order — here permuted (the case's code
// reversed, with unreferenced ops appended) — must match its materialized
// copy in the engine's Result, in its resolved trace's replay at every
// cost variant, in both dY regimes, and in the traced event stream.
func CheckPermutedProgram(c Case) error {
	base := c.Config()
	flat := sim.CompileSchedules(c.Schedules()...)
	perm := permuted(flat)
	for _, free := range []bool{false, true} {
		opts := sim.Options{FreeDYOnDW: free}
		want, wantRT := sim.ResolveProgram(base, opts, flat)
		got, rt := sim.ResolveProgram(base, opts, perm)
		if got != want {
			return fmt.Errorf("freeDY=%v: ordered program %+v != materialized %+v", free, got, want)
		}
		if rt == nil || wantRT == nil {
			return fmt.Errorf("freeDY=%v: resolution yielded no trace", free)
		}
		for vi, cfg := range costVariants(base) {
			if got, want := rt.Replay(cfg), wantRT.Replay(cfg); got != want {
				return fmt.Errorf("freeDY=%v variant %d: ordered replay %+v != materialized %+v", free, vi, got, want)
			}
		}
	}
	var dumps [2]bytes.Buffer
	for i, prog := range []*schedule.Program{flat, perm} {
		snk := trace.New()
		sim.ExecuteProgram(base, sim.Options{Trace: snk, TraceLabel: "proptest"}, prog)
		if err := snk.WriteJSON(&dumps[i]); err != nil {
			return err
		}
	}
	if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
		return fmt.Errorf("ordered program's trace differs from the materialized program's")
	}
	return nil
}

// permuted returns a program equivalent to prog that runs through Order:
// its code is prog's reversed, followed by decoy copies no position
// references, and its order points each position back at its op.
func permuted(prog *schedule.Program) *schedule.Program {
	n := len(prog.Code)
	code := make([]schedule.CompiledOp, n, n+2)
	order := make([]int32, n)
	for i, op := range prog.Code {
		code[n-1-i] = op
		order[i] = int32(n - 1 - i)
	}
	if n > 0 {
		code = append(code, prog.Code[0], prog.Code[n-1])
	}
	return &schedule.Program{Code: code, Order: order, Kernels: prog.Kernels, Table: prog.Table}
}

// CheckMultiReplay is the two-phase execution property for multi-core
// runs, on the trace cache production uses: the case's program runs
// through sim.RunMultiKeyed at the base point and every cost variant
// under a key no other run shares, so the base point resolves the trace
// and every variant must replay it — building the program once per
// placement and dY regime — to exactly what a one-shot run produces there
// (full MultiResult equality), agreeing with the refmodel oracle. This is
// what lets core replay a multi-core plan's trace across a bandwidth
// sweep.
func CheckMultiReplay(c Case) error {
	base := c.MultiConfig()
	phases := c.MultiPhases()
	key := new(byte) // a pointer no other run holds; the cache's reference keeps it unique
	var builds int
	build := func() *schedule.Program {
		builds++
		return sim.CompilePhases(phases)
	}
	points := append([]config.NPU{base}, costVariants(base)...)
	for _, shared := range []bool{true, false} {
		for _, free := range []bool{false, true} {
			opts := sim.Options{FreeDYOnDW: free}
			builds = 0
			for vi, cfg := range points {
				replayed := sim.RunMultiKeyed(cfg, opts, key, shared, build)
				engine := runPhases(cfg, opts, phases, shared)
				if !reflect.DeepEqual(replayed, engine) {
					return fmt.Errorf("shared=%v freeDY=%v point %d: replay %+v != engine %+v", shared, free, vi, replayed, engine)
				}
				want := refmodel.ReplayMulti(cfg, refmodel.Options{FreeDYOnDW: free}, phases, shared)
				if err := refmodel.CompareMulti(replayed, want); err != nil {
					return fmt.Errorf("shared=%v freeDY=%v point %d: replay vs oracle: %w", shared, free, vi, err)
				}
			}
			if builds != 1 {
				return fmt.Errorf("shared=%v freeDY=%v: %d builds over %d cost points, want 1: the replays missed the trace cache", shared, free, builds, len(points))
			}
		}
	}
	return nil
}

// CheckCycleBounds verifies the pipeline makespan sits inside its analytic
// envelope — at least the busier stage, at most the sum of both stages (a
// two-stage pipeline is always at least serially correct and never slower
// than unoverlapped execution) — and that the cycle-level trace reconciles
// with the result counters to the cycle.
func CheckCycleBounds(c Case) error {
	cfg := c.Config()
	scheds := c.Schedules()
	snk := trace.New()
	r := sim.RunSchedules(cfg, sim.Options{Trace: snk, TraceLabel: "proptest"}, scheds...)

	if r.Cycles < max(r.ComputeCycles, r.MemCycles) {
		return fmt.Errorf("makespan %d below stage maximum max(comp %d, mem %d)",
			r.Cycles, r.ComputeCycles, r.MemCycles)
	}
	if r.Cycles > r.ComputeCycles+r.MemCycles {
		return fmt.Errorf("makespan %d exceeds unoverlapped bound comp %d + mem %d",
			r.Cycles, r.ComputeCycles, r.MemCycles)
	}
	var wantOps int64
	for _, s := range scheds {
		wantOps += int64(len(s.Ops))
	}
	if r.Ops != wantOps {
		return fmt.Errorf("result counts %d ops, stream has %d", r.Ops, wantOps)
	}
	if err := snk.Check(); err != nil {
		return err
	}
	m := snk.Metrics()
	if m.Cycles != r.Cycles || m.Ops != r.Ops || m.Spills != r.Spills {
		return fmt.Errorf("trace metrics (cycles %d ops %d spills %d) disagree with result (cycles %d ops %d spills %d)",
			m.Cycles, m.Ops, m.Spills, r.Cycles, r.Ops, r.Spills)
	}
	return nil
}

// CheckConservation holds simulated traffic to the op stream's
// compulsory-traffic floor: per class, reads at or above the floor, writes
// exactly at it (accumulator spill writebacks excepted).
func CheckConservation(c Case) error {
	r := sim.RunSchedules(c.Config(), sim.Options{}, c.Schedules()...)
	return analytic.BoundsOf(c.AllOps()).Check(r.Traffic)
}

// CheckDYReuse is the paper's headline claim as an executable property: with
// enough scratchpad for the working set of one interleaved block, the
// rearranged orders (dXmajor / dWmajor, chunked or not) read every dY tile
// from DRAM exactly once, while the conventional two-kernel baseline reads
// the whole of dY once per gradient. The capacity premise matters — under
// heavy pressure a rearranged order can thrash like any other — so the
// check runs on the case relaxed to an eight-tile scratchpad floor, which
// covers the at-most-six-tile gap between consecutive uses of a dY tile
// inside one rearranged block. The plain interleave (no reordering) carries
// no such guarantee and is held only to the compulsory floor.
func CheckDYReuse(c Case) error {
	rc := c.Relaxed()
	cfg := rc.Config()
	p := rc.Params()

	base := sim.RunSchedules(cfg, sim.Options{},
		schedule.Schedule{Name: "dx-kernel", Ops: schedule.BaselineDX(p)},
		schedule.Schedule{Name: "dw-kernel", Ops: schedule.BaselineDW(p)},
	)
	baseDY := base.Traffic.Read[dram.ClassDY]
	distinctDY := analytic.BoundsOf(schedule.BaselineDX(p)).MinRead[dram.ClassDY]

	// The baseline's two flushed kernels each stream dY at least once.
	if baseDY < 2*distinctDY {
		return fmt.Errorf("two-kernel baseline read %d dY bytes, below the 2x floor %d", baseDY, 2*distinctDY)
	}

	rearranged := []schedule.Schedule{
		core.InterleaveDXMajor(p),
		core.InterleaveDWMajor(p),
		core.InterleaveDXMajorChunked(p, rc.Chunk),
		core.InterleaveDWMajorChunked(p, rc.Chunk),
	}
	for _, s := range rearranged {
		r := sim.RunSchedules(cfg, sim.Options{}, s)
		dy := r.Traffic.Read[dram.ClassDY]
		if dy != distinctDY {
			return fmt.Errorf("%s read %d dY bytes, want exactly the distinct-tile floor %d", s.Name, dy, distinctDY)
		}
		if dy > baseDY {
			return fmt.Errorf("%s read %d dY bytes, more than the two-kernel baseline %d", s.Name, dy, baseDY)
		}
	}

	il := sim.RunSchedules(cfg, sim.Options{}, core.InterleaveOnly(p))
	if dy := il.Traffic.Read[dram.ClassDY]; dy < distinctDY {
		return fmt.Errorf("interleave-only read %d dY bytes, below compulsory floor %d", dy, distinctDY)
	}
	return nil
}

// CheckPartition verifies the Figure 11 partitioning machinery: the plan
// reassembles the parent dimensions, every partition's stream is a valid
// backward pass for its sub-shape, the union of partition streams covers
// the parent tile grid exactly once per gradient, and executing all
// partitions together reproduces the reference gradients (the reduction of
// partial outputs is implicit in accumulation).
func CheckPartition(c Case) error {
	p := c.Params()
	plan := core.PartitionLayer(p, c.Scheme, c.Parts)
	if n := len(plan.Parts); n < 1 || n > c.Parts {
		return fmt.Errorf("%v plan has %d partitions, requested at most %d", c.Scheme, n, c.Parts)
	}
	if got := plan.Dims(); got != c.Dims {
		return fmt.Errorf("%v plan dims %v do not reassemble parent %v", c.Scheme, got, c.Dims)
	}
	streams := make([][]schedule.Op, len(plan.Parts))
	for i, sub := range plan.Parts {
		s := core.Interleaved(sub, core.SelectOrder(sub.Dims))
		if err := schedule.VerifyBackward(sub, s.Ops, false); err != nil {
			return fmt.Errorf("%v partition %d: %w", c.Scheme, i, err)
		}
		streams[i] = s.Ops
	}
	if err := CheckCoverage(c.Dims, c.Tiling, streams); err != nil {
		return fmt.Errorf("%v x%d: %w", c.Scheme, c.Parts, err)
	}
	var combined []schedule.Op
	for _, ops := range streams {
		combined = append(combined, ops...)
	}
	if err := core.CheckEquivalence(c.Dims, c.Tiling, combined, 1e-8); err != nil {
		return fmt.Errorf("%v x%d: %w", c.Scheme, c.Parts, err)
	}
	return nil
}

// gridPoint identifies one (m,k,n) tile-grid op of one gradient in parent
// coordinates.
type gridPoint struct {
	kind       schedule.Kind
	mo, ko, no int32
}

// parentCoords recovers the parent tile-grid coordinates of a backward op
// from its operand keys (which partitioned generators emit in parent-grid
// coordinates by construction).
func parentCoords(op *schedule.Op) (gridPoint, error) {
	switch op.Kind {
	case schedule.KindDX:
		// A = dY[mo,no], B = W[ko,no]
		return gridPoint{kind: schedule.KindDX, mo: op.A.Key.Row, no: op.A.Key.Col, ko: op.B.Key.Row}, nil
	case schedule.KindDW:
		// A = X[mo,ko], B = dY[mo,no]
		return gridPoint{kind: schedule.KindDW, mo: op.A.Key.Row, ko: op.A.Key.Col, no: op.B.Key.Col}, nil
	default:
		return gridPoint{}, fmt.Errorf("op kind %v has no backward grid point", op.Kind)
	}
}

// CheckCoverage verifies a set of op streams covers the parent backward
// tile grid exactly once: each of the mt*kt*nt grid points appears exactly
// once per gradient across all streams, never twice and never zero times.
// The multicore partition tests reuse this to prove split streams neither
// drop nor duplicate work.
func CheckCoverage(d schedule.Dims, t schedule.Tiling, streams [][]schedule.Op) error {
	mt, kt, nt := t.Counts(d)
	seen := make(map[gridPoint]int)
	for si, ops := range streams {
		for i := range ops {
			gp, err := parentCoords(&ops[i])
			if err != nil {
				return fmt.Errorf("stream %d op %d: %w", si, i, err)
			}
			if int(gp.mo) >= mt || int(gp.ko) >= kt || int(gp.no) >= nt || gp.mo < 0 || gp.ko < 0 || gp.no < 0 {
				return fmt.Errorf("stream %d op %d grid point (%d,%d,%d) outside parent grid %dx%dx%d",
					si, i, gp.mo, gp.ko, gp.no, mt, kt, nt)
			}
			seen[gp]++
			if seen[gp] > 1 {
				return fmt.Errorf("stream %d op %d: %v grid point (%d,%d,%d) covered twice",
					si, i, gp.kind, gp.mo, gp.ko, gp.no)
			}
		}
	}
	want := 2 * mt * kt * nt
	if len(seen) != want {
		return fmt.Errorf("streams cover %d grid points, want %d (%dx%dx%d per gradient)",
			len(seen), want, mt, kt, nt)
	}
	return nil
}

// CheckAnalyticBounds holds internal/analytic's sweep-pruning lower bounds
// (lower.go) at or below the simulated values on every schedule variant the
// generator produces — the soundness property internal/dse's pruner rests
// on: a point whose *bound* is dominated would also be dominated by its
// *simulation*, so skipping it never discards a frontier point (up to the
// sweep's explicit epsilon relaxations). Both FreeDYOnDW modes run, since
// the dY floor is dropped under the free-dY limit study. The sequential
// two-kernel baseline additionally meets the tighter TrafficSeq/CyclesSeq
// floors that fuel the reduction cap.
func CheckAnalyticBounds(c Case) error {
	cfg := c.Config()
	p := c.Params()
	fb := analytic.ForwardBounds(cfg, p)
	fr := sim.RunSchedules(cfg, sim.Options{}, schedule.Forward(p))
	if err := passBelow("forward", fb, fr, fb.Traffic, fb.Mem); err != nil {
		return err
	}
	for _, free := range []bool{false, true} {
		pb := analytic.BackwardBounds(cfg, p, false, free)
		r := sim.RunSchedules(cfg, sim.Options{FreeDYOnDW: free}, c.Schedules()...)
		if err := passBelow(fmt.Sprintf("backward(freeDY=%v)", free), pb, r, pb.Traffic, pb.Mem); err != nil {
			return err
		}
		if c.Variant == VariantBaselineTwoKernel && !free {
			if pb.TrafficSeq > r.Traffic.Total() {
				return fmt.Errorf("sequential traffic floor %d above two-kernel baseline %d", pb.TrafficSeq, r.Traffic.Total())
			}
			if pb.MemSeq > r.MemCycles {
				return fmt.Errorf("sequential mem floor %d above two-kernel baseline %d", pb.MemSeq, r.MemCycles)
			}
			if pb.CyclesSeq > r.Cycles {
				return fmt.Errorf("sequential cycle bound %d above two-kernel baseline %d", pb.CyclesSeq, r.Cycles)
			}
		}
	}
	return nil
}

// passBelow compares one pass's analytic bounds against a simulation.
func passBelow(pass string, pb analytic.PassBounds, r sim.Result, traffic, mem int64) error {
	switch {
	case pb.Compute > r.ComputeCycles:
		return fmt.Errorf("%s: compute total %d above simulated %d (must be exact-or-below)", pass, pb.Compute, r.ComputeCycles)
	case mem > r.MemCycles:
		return fmt.Errorf("%s: mem floor %d above simulated %d", pass, mem, r.MemCycles)
	case pb.Cycles > r.Cycles:
		return fmt.Errorf("%s: cycle bound %d above simulated makespan %d", pass, pb.Cycles, r.Cycles)
	case traffic > r.Traffic.Total():
		return fmt.Errorf("%s: traffic floor %d above simulated %d", pass, traffic, r.Traffic.Total())
	}
	return nil
}
