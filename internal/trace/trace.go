// Package trace is the simulator's cycle-level observability layer: a
// zero-overhead-when-disabled event sink that the engine and its
// scratchpad model (internal/sim), the schedule executors (internal/core)
// and the parallel runner (internal/runner) emit into.
//
// Two time domains coexist in one sink:
//
//   - engine tracks record *simulated* events — DMA and compute spans per
//     tile op, kernel phase spans, SPM occupancy samples — with timestamps
//     in core cycles;
//   - the sink's global track records *wall-clock* events — runner task
//     spans and memo-hit instants — with timestamps in microseconds since
//     the sink was created.
//
// The collected events export as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing, see export.go) and reduce to a text report
// of stall attribution, occupancy high-water marks and per-tensor-class
// reuse distances (see metrics.go).
//
// # Overhead contract
//
// Tracing is *disabled* when the sink (or a track) pointer is nil. Every
// method on Sink and Track is nil-receiver safe and returns immediately in
// that case, so instrumented hot paths call unconditionally and pay one
// predictable branch — no allocations, no locks, no time reads. The
// contract is enforced by TestDisabledPathZeroAllocs (make trace-check).
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"igosim/internal/dram"
	"igosim/internal/stats"
)

// active is the process-wide sink consulted by the runner and by the core
// entry points when no sink was passed explicitly. nil means disabled.
var active atomic.Pointer[Sink]

// SetActive installs s as the process-wide active sink and returns the
// previous one. Pass nil to disable tracing.
func SetActive(s *Sink) *Sink {
	prev := active.Load()
	active.Store(s)
	return prev
}

// Active returns the process-wide active sink (nil when tracing is off).
func Active() *Sink { return active.Load() }

// Sink collects trace events for one run. Construct with New; a nil *Sink
// is the disabled tracer. Tracks hand out single-writer event buffers, so
// concurrent engines never contend; the sink's own mutex guards only track
// registration and the low-frequency wall-clock events.
type Sink struct {
	start   time.Time
	summary bool // tracks fold metrics but keep no events

	mu      sync.Mutex
	nextPID int64
	tracks  []*Track
	wall    []wallEvent
}

// New creates an empty sink. The wall-clock origin of runner-task events is
// the moment of creation.
//
//lint:walldomain the sink's wall-clock origin feeds only the emitted trace file
func New() *Sink {
	return &Sink{start: time.Now(), nextPID: 1}
}

// NewSummary creates a sink for callers that read only Metrics: its tracks
// fold the same stall, occupancy, spill and reuse metrics as New's but
// append no events, so a traced run costs no event buffers. Check still
// verifies every track reconciles; an export carries no engine events.
func NewSummary() *Sink {
	s := New()
	s.summary = true
	return s
}

// Enabled reports whether the sink collects events.
func (s *Sink) Enabled() bool { return s != nil }

// Summary reports whether the sink folds metrics only (NewSummary).
func (s *Sink) Summary() bool {
	if s == nil {
		return false
	}
	return s.summary
}

// wallEvent is one wall-clock-domain event on the sink's global track.
type wallEvent struct {
	kind    wallKind
	name    string
	tid     int64 // worker id for task spans
	ts, dur int64 // microseconds since sink start
	index   int64 // task index for task spans
}

type wallKind uint8

const (
	wallTask wallKind = iota
	wallMemoHit
)

// Task records one runner task span: worker executed item index from start
// to end (wall clock). Safe for concurrent use.
func (s *Sink) Task(worker, index int, begin, end time.Time) {
	if s == nil {
		return
	}
	ev := wallEvent{
		kind:  wallTask,
		name:  "task",
		tid:   int64(worker + 1),
		ts:    begin.Sub(s.start).Microseconds(),
		dur:   end.Sub(begin).Microseconds(),
		index: int64(index),
	}
	s.mu.Lock()
	s.wall = append(s.wall, ev)
	s.mu.Unlock()
}

// MemoHit records that a memoization cache served a simulation result
// instead of re-executing it (the span the trace would otherwise show).
// label names what was served (typically "model/layer").
//
//lint:walldomain memo-hit timestamps are wall-clock events on the emitted trace only
func (s *Sink) MemoHit(cache, label string) {
	if s == nil {
		return
	}
	ev := wallEvent{
		kind: wallMemoHit,
		name: cache + ":" + label,
		ts:   time.Since(s.start).Microseconds(),
	}
	s.mu.Lock()
	s.wall = append(s.wall, ev)
	s.mu.Unlock()
}

// evKind discriminates cycle-domain events within a track.
type evKind uint8

const (
	evCompute evKind = iota // systolic-array span; args: tm, tk, tn
	evDMA                   // transfer span; args: fetchB, writeB, spillB, bursts
	evSpill                 // pressure-spill instant; args: bytes
	evOcc                   // SPM occupancy counter; args: used bytes
	evPhase                 // kernel/GEMM phase span
)

// event is one cycle-domain event. name is always a pre-existing string
// (op-kind or schedule name), so emission never formats.
type event struct {
	kind    evKind
	name    string
	ts, dur int64
	args    [4]int64
}

// Track is a single-writer event stream for one simulated engine core (or
// one shared scratchpad). It doubles as the metrics accumulator: stall
// attribution, occupancy high-water mark and reuse-distance histograms are
// folded in at emission time so the report needs no event replay.
type Track struct {
	pid     int64
	name    string
	summary bool // metrics only: emit appends nothing

	events []event

	folded
	lastOcc int64

	// Reuse-distance bookkeeping: distance = tile accesses between
	// successive touches of the same tile, per tensor class. A track
	// records one program, so its tile IDs name tiles: last[id] is one
	// past the access index of tile id's latest touch (0: not touched
	// yet), sized by Bind and dropped by Release. Bind allocates the
	// histograms; a track appended from a record (Sink.Append) has none
	// and carries the record's packed histograms instead.
	accIdx int64
	last   []int64
	bound  bool
	reuse  *[dram.NumClasses]stats.Histogram
	packed []classReuse
}

// folded holds a track's cycle-domain counters, folded in at emission
// time: with the reuse histograms, everything Metrics and Check read of a
// track besides its events.
type folded struct {
	cycles      int64 // final compute completion (the track's makespan)
	computeBusy int64
	stallDMA    int64
	stallSpill  int64
	spills      int64
	spillBytes  int64
	ops         int64
	occHWM      int64
	occCap      int64
	firstTouch  int64
}

// classList fixes the tensor-class order of the reuse histograms.
var classList = dram.Classes()

// NewTrack registers a new engine track named name (shown as the process
// name in trace viewers). Returns nil — the disabled track — when s is nil.
func (s *Sink) NewTrack(name string) *Track {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	t := &Track{
		pid:     s.nextPID,
		name:    name,
		summary: s.summary,
	}
	s.nextPID++
	s.tracks = append(s.tracks, t)
	s.mu.Unlock()
	return t
}

// emit appends ev to the track's events unless the track keeps metrics
// only.
func (t *Track) emit(ev event) {
	if !t.summary {
		t.events = append(t.events, ev)
	}
}

// SetCapacity records the byte capacity behind the track's occupancy
// samples (for high-water-mark reporting).
func (t *Track) SetCapacity(capacity int64) {
	if t == nil {
		return
	}
	t.occCap = capacity
}

// Compute emits a systolic-array span for one tile op of the given kind
// (schedule.Kind.String(), a constant) and advances the track makespan.
func (t *Track) Compute(kind string, start, dur int64, tm, tk, tn int) {
	if t == nil {
		return
	}
	t.ops++
	t.computeBusy += dur
	if end := start + dur; end > t.cycles {
		t.cycles = end
	}
	t.emit(event{
		kind: evCompute, name: kind, ts: start, dur: dur,
		args: [4]int64{int64(tm), int64(tk), int64(tn)},
	})
}

// DMA emits a transfer span covering the op's fetches, write-backs and
// pressure spills. Zero-length transfers (fully resident ops) are elided.
func (t *Track) DMA(start, dur, fetchBytes, writeBytes, spillBytes int64, bursts int) {
	if t == nil || (dur == 0 && fetchBytes+writeBytes+spillBytes == 0) {
		return
	}
	t.emit(event{
		kind: evDMA, name: "xfer", ts: start, dur: dur,
		args: [4]int64{fetchBytes, writeBytes, spillBytes, int64(bursts)},
	})
}

// Stall attributes the compute stage's wait before one op: dma cycles spent
// waiting on ordinary transfers, spill cycles waiting on pressure-spill
// write-backs. Per track, computeBusy + stallDMA + stallSpill always equals
// the track makespan — the reconciliation invariant the report and tests
// rely on.
func (t *Track) Stall(dma, spill int64) {
	if t == nil {
		return
	}
	t.stallDMA += dma
	t.stallSpill += spill
}

// Spill emits a pressure-spill instant: a live partial-sum tile of the
// given size was pushed to DRAM by scratchpad pressure.
func (t *Track) Spill(ts, bytes int64) {
	if t == nil {
		return
	}
	t.spills++
	t.spillBytes += bytes
	t.emit(event{kind: evSpill, name: "spill", ts: ts, args: [4]int64{bytes}})
}

// Occupancy emits an SPM occupancy counter sample, deduplicated by value.
func (t *Track) Occupancy(ts, used int64) {
	if t == nil {
		return
	}
	if used > t.occHWM {
		t.occHWM = used
	}
	if used == t.lastOcc && len(t.events) > 0 {
		return
	}
	t.lastOcc = used
	t.emit(event{kind: evOcc, name: "spm-used", ts: ts, args: [4]int64{used}})
}

// Bind sizes the track's reuse bookkeeping for the one program it
// records, whose tile IDs run below tiles. It panics on a second Bind: tile
// IDs from two programs would name different tiles alike.
func (t *Track) Bind(tiles int) {
	if t == nil {
		return
	}
	if t.bound {
		panic(fmt.Sprintf("trace: track %q is bound to a second program", t.name))
	}
	t.bound = true
	t.last = make([]int64, tiles)
	t.reuse = new([dram.NumClasses]stats.Histogram)
}

// Release drops the reuse bookkeeping once the track's program has run;
// the folded metrics stay.
func (t *Track) Release() {
	if t == nil {
		return
	}
	t.last = nil
}

// Access records one access to tile id, of tensor class c, for
// reuse-distance accounting. No event is emitted; re-touches land in the
// class's histogram with the distance (in tile accesses) since the
// previous touch of the same tile.
func (t *Track) Access(id int32, c dram.Class) {
	if t == nil {
		return
	}
	t.accIdx++
	if prev := t.last[id]; prev != 0 {
		if int(c) < len(t.reuse) {
			t.reuse[c].Add(t.accIdx - prev)
		}
	} else {
		t.firstTouch++
	}
	t.last[id] = t.accIdx
}

// Phase emits a kernel/GEMM phase span (for example "interleave+dXmajor" or
// "baseline-sequential") covering [start, end) cycles.
func (t *Track) Phase(name string, start, end int64) {
	if t == nil || end <= start {
		return
	}
	t.emit(event{kind: evPhase, name: name, ts: start, dur: end - start})
}
