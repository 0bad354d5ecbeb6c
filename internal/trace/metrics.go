package trace

import (
	"fmt"
	"strings"
	"time"

	"igosim/internal/dram"
	"igosim/internal/stats"
)

// Metrics is the derived summary of a traced run: stall-cycle attribution,
// scratchpad occupancy high-water marks and per-tensor-class reuse
// distances, aggregated over every engine track in the sink.
type Metrics struct {
	// Tracks counts engine tracks (one per simulated core or shared SPM).
	Tracks int
	// Ops counts tile operations executed across all tracks.
	Ops int64

	// Cycles is the sum of per-track makespans. It always equals
	// ComputeBusy + StallDMA + StallSpill (the reconciliation invariant).
	Cycles int64
	// ComputeBusy is the cycles the systolic arrays spent computing.
	ComputeBusy int64
	// StallDMA is the cycles compute stalled waiting on ordinary DMA
	// transfers (operand fetches and output drains).
	StallDMA int64
	// StallSpill is the cycles compute stalled waiting on pressure-spill
	// write-backs of live partial sums.
	StallSpill int64

	// Spills and SpillBytes count live partial-sum tiles pushed to DRAM.
	Spills     int64
	SpillBytes int64

	// OccHWM is the highest SPM occupancy sampled on any track; OccCap is
	// that track's capacity and OccTrack its name.
	OccHWM   int64
	OccCap   int64
	OccTrack string

	// Reuse holds one reuse-distance histogram per tensor class (indexed in
	// dram.Classes() order): the tile accesses between successive touches of
	// the same tile. FirstTouches counts cold first accesses.
	Reuse        [dram.NumClasses]stats.Histogram
	FirstTouches int64

	// MemoHits counts simulations served from memo caches instead of being
	// re-executed (their spans are absent from the trace by design).
	MemoHits int64
	// Tasks and TaskWall summarise the runner's wall-clock task spans.
	Tasks    int64
	TaskWall time.Duration
}

// Metrics reduces the sink's tracks to a Metrics summary. A nil sink
// returns the zero Metrics. Call only after traced simulations finished.
func (s *Sink) Metrics() Metrics {
	if s == nil {
		return Metrics{}
	}
	var m Metrics
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tracks {
		m.Tracks++
		m.Ops += t.ops
		m.Cycles += t.cycles
		m.ComputeBusy += t.computeBusy
		m.StallDMA += t.stallDMA
		m.StallSpill += t.stallSpill
		m.Spills += t.spills
		m.SpillBytes += t.spillBytes
		m.FirstTouches += t.firstTouch
		if t.reuse != nil {
			for c := range t.reuse {
				m.Reuse[c].Merge(&t.reuse[c])
			}
		}
		for _, r := range t.packed {
			h := r.h.Unpack()
			m.Reuse[r.class].Merge(&h)
		}
		if t.occHWM > m.OccHWM {
			m.OccHWM = t.occHWM
			m.OccCap = t.occCap
			m.OccTrack = t.name
		}
	}
	for _, ev := range s.wall {
		switch ev.kind {
		case wallTask:
			m.Tasks++
			m.TaskWall += time.Duration(ev.dur) * time.Microsecond
		case wallMemoHit:
			m.MemoHits++
		}
	}
	return m
}

// share formats part as a percentage of total.
func share(part, total int64) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// Report renders the metrics as the text report the CLIs print for
// -report: stall attribution, occupancy and reuse-distance tables.
func (m Metrics) Report() string {
	var b strings.Builder
	b.WriteString("=== trace report ===\n")
	fmt.Fprintf(&b, "engine tracks %d, tile ops %d, memo hits %d, runner tasks %d (wall %s)\n\n",
		m.Tracks, m.Ops, m.MemoHits, m.Tasks, m.TaskWall.Round(time.Microsecond))

	b.WriteString("stall attribution (cycle domain, summed over engine tracks)\n")
	at := stats.NewTable("component", "cycles", "share")
	at.AddRow("compute-busy", fmt.Sprintf("%d", m.ComputeBusy), share(m.ComputeBusy, m.Cycles))
	at.AddRow("dma-stall", fmt.Sprintf("%d", m.StallDMA), share(m.StallDMA, m.Cycles))
	at.AddRow("spill-stall", fmt.Sprintf("%d", m.StallSpill), share(m.StallSpill, m.Cycles))
	at.AddRow("total", fmt.Sprintf("%d", m.Cycles), share(m.Cycles, m.Cycles))
	b.WriteString(at.String())

	fmt.Fprintf(&b, "\npressure spills: %d tiles, %d bytes\n", m.Spills, m.SpillBytes)
	if m.OccCap > 0 {
		fmt.Fprintf(&b, "SPM occupancy high-water: %d / %d bytes (%s) on track %q\n",
			m.OccHWM, m.OccCap, share(m.OccHWM, m.OccCap), m.OccTrack)
	}

	fmt.Fprintf(&b, "\nreuse distance (tile accesses between touches; %d first touches)\n", m.FirstTouches)
	rt := stats.NewTable("class", "reuses", "mean", "p50", "p99", "max")
	for c, cls := range classList {
		h := &m.Reuse[c]
		if h.Count() == 0 {
			continue
		}
		rt.AddRow(cls.String(),
			fmt.Sprintf("%d", h.Count()),
			fmt.Sprintf("%.1f", h.Mean()),
			fmt.Sprintf("%d", h.Quantile(0.5)),
			fmt.Sprintf("%d", h.Quantile(0.99)),
			fmt.Sprintf("%d", h.Max()))
	}
	b.WriteString(rt.String())
	return b.String()
}

// Check validates the sink's internal invariants; tests use it to prove
// traces are complete and well-formed:
//
//   - every track reconciles: computeBusy + stallDMA + stallSpill equals the
//     track makespan (no simulated cycle is unattributed);
//   - every event has non-negative timestamp and duration;
//   - occupancy samples never exceed the track's declared capacity.
func (s *Sink) Check() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tracks {
		if got := t.computeBusy + t.stallDMA + t.stallSpill; got != t.cycles {
			return fmt.Errorf("trace: track %q does not reconcile: busy %d + dma %d + spill %d = %d, makespan %d",
				t.name, t.computeBusy, t.stallDMA, t.stallSpill, got, t.cycles)
		}
		for i := range t.events {
			ev := &t.events[i]
			if ev.ts < 0 || ev.dur < 0 {
				return fmt.Errorf("trace: track %q event %d (%s) has negative time ts=%d dur=%d",
					t.name, i, ev.name, ev.ts, ev.dur)
			}
			if ev.kind == evOcc && t.occCap > 0 && ev.args[0] > t.occCap {
				return fmt.Errorf("trace: track %q occupancy %d exceeds capacity %d",
					t.name, ev.args[0], t.occCap)
			}
		}
	}
	for _, ev := range s.wall {
		if ev.ts < 0 || ev.dur < 0 {
			return fmt.Errorf("trace: wall event %q has negative time ts=%d dur=%d", ev.name, ev.ts, ev.dur)
		}
	}
	return nil
}
