package trace

import (
	"strings"
	"unsafe"

	"igosim/internal/stats"
)

// FoldedTrack is the compact record of one track: its folded counters and
// its reuse histograms, each trimmed to its used buckets and empty classes
// omitted — everything Metrics and Check read of a summary track. A
// caller that knows a traced run would repeat keeps the run's records
// (Sink.Fold) and appends them to a later run's sink (Sink.Append) in
// place of re-simulating it.
type FoldedTrack struct {
	name string // relative to the prefix it was folded under
	folded
	reuse []classReuse
}

// classReuse is one tensor class's packed reuse histogram.
type classReuse struct {
	class int // index into Metrics.Reuse
	h     stats.PackedHistogram
}

// Bytes returns the memory the record holds.
func (f *FoldedTrack) Bytes() int {
	n := int(unsafe.Sizeof(*f)) + len(f.name) + cap(f.reuse)*int(unsafe.Sizeof(classReuse{}))
	for i := range f.reuse {
		n += f.reuse[i].h.Buckets() * int(unsafe.Sizeof(int64(0)))
	}
	return n
}

// Fold returns a record of each of the sink's tracks, in registration
// order, named relative to prefix, which every track's name begins with.
// Call only after the traced simulations finished.
func (s *Sink) Fold(prefix string) []FoldedTrack {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FoldedTrack, len(s.tracks))
	for i, t := range s.tracks {
		f := &out[i]
		f.name = strings.Clone(strings.TrimPrefix(t.name, prefix))
		f.folded = t.folded
		f.reuse = t.packed
		if t.reuse == nil {
			continue
		}
		used := 0
		for c := range t.reuse {
			if t.reuse[c].Count() > 0 {
				used++
			}
		}
		f.reuse = make([]classReuse, 0, used)
		for c := range t.reuse {
			if t.reuse[c].Count() > 0 {
				f.reuse = append(f.reuse, classReuse{class: c, h: t.reuse[c].Pack()})
			}
		}
	}
	return out
}

// Append registers one track per record, in order, named prefix followed
// by the record's relative name and carrying the record's metrics. The
// appended tracks share the records' histograms, which neither side
// modifies; they hold no events, as a summary sink's tracks do, and are
// not bound to a program. No-op on a nil sink.
func (s *Sink) Append(prefix string, tracks []FoldedTrack) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range tracks {
		f := &tracks[i]
		s.tracks = append(s.tracks, &Track{
			pid: s.nextPID, name: prefix + f.name, summary: s.summary,
			folded: f.folded, packed: f.reuse,
		})
		s.nextPID++
	}
}
