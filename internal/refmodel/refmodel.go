// Package refmodel is the differential oracle for the cycle simulator: a
// deliberately slow, obviously-correct reference interpreter that replays a
// tile-op stream ([]schedule.Op) against a fully-associative LRU scratchpad
// with exact byte accounting and reports independent traffic, hit/miss,
// eviction, spill and cycle counts.
//
// The oracle re-derives everything observable from the op-stream semantics
// (DESIGN.md §3f): which accesses hit or miss, what traffic each miss and
// writeback generates, which live partial sums spill under pressure, and
// how the two-stage double-buffered pipeline advances. Only the primitive
// hardware cost functions — dram.Channel.TransferCycles and
// systolic.Array.TileCycles — are shared with the engine: they are model
// parameters, not engine logic, and sharing them keeps the comparison
// bit-exact instead of bit-close.
//
// internal/sim is the fast engine; this package is the slow specification.
// Every counter the two produce must agree bit-exactly on every op stream,
// single-core (ReplaySchedules against sim.RunSchedules) and multi-core
// with shared or private scratchpad placement (ReplayMulti against
// sim.RunMultiKeyed on sim.CompilePhases of the same phases): proptest
// asserts this on hundreds of random cases per run, and
// `validate -refcheck` on every golden workload. The
// implementations are kept structurally different on purpose: the engine
// threads accounting through an incremental step function, an intrusive-list
// LRU over interned tile IDs and a per-tile loaded-by table, while the
// oracle lowers each op to an explicit access list, replays it against an
// O(n)-scan residency slice whose entries record the core that placed them,
// and lists a phase's round-robin service order before replaying it.
package refmodel

import (
	"fmt"

	"igosim/internal/config"
	"igosim/internal/dram"
	"igosim/internal/schedule"
	"igosim/internal/systolic"
)

// Options mirrors the sim.Options knobs that change simulation results.
// Observability options (tracing) have no counterpart here: the oracle is
// the thing results are checked against, so it carries none.
type Options struct {
	// FreeDYOnDW makes dY reads issued by dW-side operations free, matching
	// the Section 3.3 limit study in sim.Options.
	FreeDYOnDW bool
}

// Counts is the oracle's independent tally of one replay. Field for field
// it mirrors sim.Result (with its SPM statistics flattened) so the two can
// be compared exactly; see Compare.
type Counts struct {
	Cycles        int64
	ComputeCycles int64
	MemCycles     int64
	Traffic       dram.Traffic
	Ops           int64
	Hits          int64
	Misses        int64
	Evictions     int64
	Spills        int64
}

// accessKind labels one scratchpad access lowered from a tile op.
type accessKind uint8

const (
	// accAlloc places a partial-sum output tile without fetching it.
	accAlloc accessKind = iota
	// accReload requires a partial-sum output tile resident; a miss means
	// it was spilled earlier and is fetched back.
	accReload
	// accLoad requires an operand tile resident, fetching it on a miss.
	accLoad
	// accLoadFree is accLoad with the fetch traffic waived (limit study).
	accLoadFree
	// accDrain writes the finished output tile back and frees it.
	accDrain
)

// access is one scratchpad access: a tile plus what must happen to it.
type access struct {
	kind  accessKind
	tile  schedule.Tile
	class dram.Class // traffic class charged on fetch (reloads and loads)
	live  bool       // allocs only: tile is a live partial after this op
}

// lower translates one tile op into its ordered access list — the
// specification of what the engine's step does, written as data. The order
// matters: it fixes LRU recency and therefore who gets evicted.
func lower(op *schedule.Op, free bool) []access {
	acc := make([]access, 0, 4)
	if op.OutFirst {
		acc = append(acc, access{kind: accAlloc, tile: op.Out, live: !op.OutLast})
	} else {
		// Re-accumulation: the partial must be resident; a miss means it was
		// spilled earlier and is fetched back as intermediate traffic.
		acc = append(acc, access{kind: accReload, tile: op.Out, class: dram.ClassAcc})
	}
	for _, t := range [2]schedule.Tile{op.A, op.B} {
		k := accLoad
		if free && op.Kind == schedule.KindDW && t.Key.Class == dram.ClassDY {
			k = accLoadFree
		}
		acc = append(acc, access{kind: k, tile: t, class: t.Key.Class})
	}
	if op.OutLast {
		acc = append(acc, access{kind: accDrain, tile: op.Out})
	}
	return acc
}

// machine is the hardware every core of one replay shares: the systolic
// and DRAM cost primitives, the study options, and the set of live
// partial-sum tiles. Live partials are tracked per tile key across all
// cores, exactly as the engine tracks them.
type machine struct {
	arr  systolic.Array
	chn  dram.Channel
	free bool
	live map[schedule.TileKey]int64
}

func newMachine(cfg config.NPU, opts Options) machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return machine{
		arr: systolic.New(cfg),
		chn: dram.Channel{
			BytesPerCycle: cfg.BytesPerCycle(), // per core
			BurstLatency:  cfg.DRAMLatency,
		},
		free: opts.FreeDYOnDW,
		live: make(map[schedule.TileKey]int64),
	}
}

// pipe is one core's two-stage pipeline recurrence (double buffering,
// prefetch depth 2) and its tallies.
type pipe struct {
	memDone     int64
	compDone    int64
	prevCompEnd int64
	c           Counts
}

// step replays a single tile op issued by core: lower it to accesses,
// apply them to the residency set while tallying traffic into p, then
// advance p's pipeline. It returns how many operand accesses hit a tile
// that a different core placed.
func (m *machine) step(p *pipe, set *lruSet, core int, op *schedule.Op) (crossHits int64) {
	var fetchBytes, writeBytes, spillBytes int64
	var bursts, spillBursts int

	place := func(t schedule.Tile) {
		for _, v := range set.insert(t.Key, t.Bytes, core) {
			bytes, isLive := m.live[v]
			if !isLive {
				continue // clean tile: dropping it costs nothing
			}
			spillBytes += bytes
			spillBursts++
			p.c.Traffic.AddWrite(dram.ClassAcc, bytes)
			p.c.Spills++
		}
	}

	for _, a := range lower(op, m.free) {
		switch a.kind {
		case accAlloc:
			if a.live {
				m.live[a.tile.Key] = a.tile.Bytes
			}
			place(a.tile)
		case accReload, accLoad, accLoadFree:
			if hit, by := set.touch(a.tile.Key); hit {
				if a.kind != accReload && by != core {
					crossHits++
				}
				continue
			}
			if a.kind != accLoadFree {
				fetchBytes += a.tile.Bytes
				bursts++
				p.c.Traffic.AddRead(a.class, a.tile.Bytes)
			}
			place(a.tile)
		case accDrain:
			writeBytes += a.tile.Bytes
			bursts++
			p.c.Traffic.AddWrite(a.tile.Key.Class, a.tile.Bytes)
			set.remove(a.tile.Key)
			delete(m.live, a.tile.Key)
		}
	}

	memCycles := m.chn.TransferCycles(fetchBytes+writeBytes+spillBytes, bursts+spillBursts)
	compCycles := m.arr.TileCycles(op.Tm, op.Tk, op.Tn)

	// The DMA stage may run at most one op ahead of compute.
	memEnd := max(p.memDone, p.prevCompEnd) + memCycles
	compEnd := max(p.compDone, memEnd) + compCycles
	p.memDone = memEnd
	p.prevCompEnd = p.compDone
	p.compDone = compEnd

	p.c.ComputeCycles += compCycles
	p.c.MemCycles += memCycles
	p.c.Ops++
	return crossHits
}

// ReplaySchedules replays the given schedules in order on one core,
// flushing the scratchpad at each schedule boundary — the oracle twin of
// sim.RunSchedules, as a one-core ReplayMulti with one phase per schedule.
func ReplaySchedules(cfg config.NPU, opts Options, scheds ...schedule.Schedule) Counts {
	cfg.Cores = 1
	phases := make([][][]schedule.Op, len(scheds))
	for i, s := range scheds {
		phases[i] = [][]schedule.Op{s.Ops}
	}
	return ReplayMulti(cfg, opts, phases, true).PerCore[0]
}

// MultiCounts is the oracle's tally of one multi-core replay. Field for
// field it mirrors sim.MultiResult; see CompareMulti.
type MultiCounts struct {
	// Cycles is the slowest core's completion time.
	Cycles int64
	// PerCore holds each core's tallies. Residency statistics (Hits,
	// Misses, Evictions) are reported once, on core 0: of the shared set,
	// or of core 0's own set under private placement.
	PerCore []Counts
	// Traffic is the aggregate DRAM traffic of all cores.
	Traffic dram.Traffic
	// SharedHits counts operand hits on tiles a different core placed.
	SharedHits int64
}

// ReplayMulti replays phases of concurrent per-core op streams — the
// oracle twin of sim.RunMultiKeyed on sim.CompilePhases(phases). Each core
// owns its pipeline and its per-core slice of DRAM bandwidth. With shared
// placement one residency set spans the whole scratchpad
// (TotalSPMBytes/2), so a tile one core placed hits for every other core;
// with private placement each core owns a set over its own slice
// (SPMBytes/2). Within a phase the streams are serviced in rotating
// round-robin order (see roundRobin); between phases every set is flushed
// while pipeline time carries across.
func ReplayMulti(cfg config.NPU, opts Options, phases [][][]schedule.Op, shared bool) MultiCounts {
	m := newMachine(cfg, opts)
	cores := 0
	for _, streams := range phases {
		if len(streams) == 0 || len(streams) > cfg.Cores {
			panic(fmt.Sprintf("refmodel: phase has %d streams on %d cores", len(streams), cfg.Cores))
		}
		cores = max(cores, len(streams))
	}
	if cores == 0 {
		panic("refmodel: no phases")
	}
	sets := make([]*lruSet, cores)
	for c := range sets {
		switch {
		case !shared:
			sets[c] = newLRUSet(cfg.SPMBytes / 2)
		case c == 0:
			sets[c] = newLRUSet(cfg.TotalSPMBytes() / 2)
		default:
			sets[c] = sets[0]
		}
	}
	pipes := make([]pipe, cores)
	var crossHits int64
	for pi, streams := range phases {
		if pi > 0 {
			for _, s := range sets {
				s.flush()
			}
			clear(m.live)
		}
		for _, at := range roundRobin(streams) {
			crossHits += m.step(&pipes[at.core], sets[at.core], at.core, &streams[at.core][at.op])
		}
	}

	out := MultiCounts{PerCore: make([]Counts, cores), SharedHits: crossHits}
	for c, p := range pipes {
		p.c.Cycles = p.compDone
		out.PerCore[c] = p.c
		out.Traffic.Merge(p.c.Traffic)
		out.Cycles = max(out.Cycles, p.c.Cycles)
	}
	out.PerCore[0].Hits = sets[0].hits
	out.PerCore[0].Misses = sets[0].misses
	out.PerCore[0].Evictions = sets[0].evictions
	return out
}

// slot names one op of one core's stream.
type slot struct{ core, op int }

// roundRobin lists the order in which one phase's ops are serviced: round
// r visits the streams starting from stream r mod n, taking the next op of
// each stream that has one, until every stream is exhausted. Rotating the
// starting stream keeps any one core from always paying for the first
// fetch of a tile the partitions share.
func roundRobin(streams [][]schedule.Op) []slot {
	n, total := len(streams), 0
	for _, s := range streams {
		total += len(s)
	}
	order := make([]slot, 0, total)
	next := make([]int, n)
	for round := 0; len(order) < total; round++ {
		for i := 0; i < n; i++ {
			c := (round + i) % n
			if next[c] < len(streams[c]) {
				order = append(order, slot{core: c, op: next[c]})
				next[c]++
			}
		}
	}
	return order
}

// lruSet is the oracle's fully-associative byte-capacity LRU residency set:
// a plain slice ordered most-recently-used first, manipulated with O(n)
// scans. Slow and obviously correct — the point of this package.
type lruSet struct {
	capacity int64
	used     int64
	order    []lruEntry // index 0 is most recently used

	hits, misses, evictions int64
}

type lruEntry struct {
	key   schedule.TileKey
	bytes int64
	by    int // core that last placed the tile
}

func newLRUSet(capacity int64) *lruSet {
	if capacity <= 0 {
		panic(fmt.Sprintf("refmodel: invalid capacity %d", capacity))
	}
	return &lruSet{capacity: capacity}
}

// find returns the position of key in the recency order, or -1.
func (l *lruSet) find(key schedule.TileKey) int {
	for i := range l.order {
		if l.order[i].key == key {
			return i
		}
	}
	return -1
}

// front moves the entry at position i to the most-recently-used slot.
func (l *lruSet) front(i int) {
	e := l.order[i]
	copy(l.order[1:i+1], l.order[:i])
	l.order[0] = e
}

// touch marks key most recently used if resident, counting a hit or miss,
// and reports which core placed it.
func (l *lruSet) touch(key schedule.TileKey) (hit bool, by int) {
	i := l.find(key)
	if i < 0 {
		l.misses++
		return false, 0
	}
	l.hits++
	l.front(i)
	return true, l.order[0].by
}

// insert places key on behalf of core by, evicting from the
// least-recently-used end until it fits, and returns the evicted keys
// oldest-first. Inserting a resident key only refreshes recency and the
// placing core. Neither a hit nor a miss is counted: residency checks
// happen in touch, placement here.
func (l *lruSet) insert(key schedule.TileKey, bytes int64, by int) []schedule.TileKey {
	if bytes <= 0 {
		panic(fmt.Sprintf("refmodel: invalid tile size %d", bytes))
	}
	if bytes > l.capacity {
		panic(fmt.Sprintf("refmodel: tile of %d bytes exceeds capacity %d", bytes, l.capacity))
	}
	if i := l.find(key); i >= 0 {
		l.front(i)
		l.order[0].by = by
		return nil
	}
	var evicted []schedule.TileKey
	for l.used+bytes > l.capacity && len(l.order) > 0 {
		last := l.order[len(l.order)-1]
		l.order = l.order[:len(l.order)-1]
		l.used -= last.bytes
		l.evictions++
		evicted = append(evicted, last.key)
	}
	l.order = append([]lruEntry{{key: key, bytes: bytes, by: by}}, l.order...)
	l.used += bytes
	return evicted
}

// remove drops key from the set if resident.
func (l *lruSet) remove(key schedule.TileKey) {
	i := l.find(key)
	if i < 0 {
		return
	}
	l.used -= l.order[i].bytes
	l.order = append(l.order[:i], l.order[i+1:]...)
}

// flush empties the set, preserving counters.
func (l *lruSet) flush() {
	l.order = nil
	l.used = 0
}
