package core

import (
	"unsafe"

	"igosim/internal/config"
	"igosim/internal/runner"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/stats"
	"igosim/internal/trace"
)

// Summary-trace memo (DESIGN.md §3d, §3k). A traced run cannot use the
// trace cache (useTraceCache): a resolved trace keeps per-op transfer
// totals, not the stall attribution, occupancy and reuse distances a sink
// folds, so only the engine can produce them. A summary sink
// (trace.NewSummary), though, keeps nothing but those folded counters,
// and for one plan they are a pure function of the plan's key with the
// parent normalized, the whole hardware fingerprint (stall attribution
// depends on timing), the free-dY option and the placement. summaryMemo
// keeps each such run's outcome and its tracks' compact records
// (trace.FoldedTrack), so a repeated summary-traced run appends the
// stored tracks to the caller's sink and returns the outcome without
// lowering or executing anything: a serve trace report re-runs the same
// few plans many times. Since a plan key names the kernels a plan runs,
// not the policy that chose them, runs of one program under different
// policies (a dW-only layer under each) share one record: the outcome and
// the tracks depend only on the program, the hardware and the labels the
// caller's prefix supplies.
//
// Full sinks (trace.New: the CLIs' -trace and -report, the trace goldens)
// never consult the memo: their event streams exist only if the engine
// runs. A hit records no MemoHit, since the report prints that count and
// a served run must read exactly as an executed one. The memo is a
// weighted runner.Bounded over a fixed byte budget, each entry weighed by
// what it pins: 1.2 KB per plan on average over the plans of serve's
// reports, since each record keeps only the used span of each class's
// reuse histogram.

// summaryKey identifies one summary-traced plan run: its planKey, the
// hardware fingerprint, and the options and placement that complete the
// residency key.
type summaryKey struct {
	planKey
	fp            config.Fingerprint
	freeDY        bool
	multi, shared bool
}

// summaryRun is what a summary-traced plan run leaves: its outcome before
// the plan's reductions, and its tracks named relative to the run's
// track prefix.
type summaryRun struct {
	out    LayerOutcome
	tracks []trace.FoldedTrack
}

// summaryMemoBytes bounds what the memo pins. A serve workload's reports
// cover a few hundred distinct plan runs (the benchmark's serve-mixed
// stream: 342, 0.4 MiB); the budget holds about 3 500.
const summaryMemoBytes = 4 << 20

// summaryEntryOverhead is what one entry pins beyond its value: its key,
// held in both the map and the LRU entry, plus the entry's links and map
// slot.
const summaryEntryOverhead = 2*int(unsafe.Sizeof(summaryKey{})) + 64

// summaryRunBytes weighs one memo entry.
func summaryRunBytes(r summaryRun) int {
	n := summaryEntryOverhead + int(unsafe.Sizeof(r))
	for i := range r.tracks {
		n += r.tracks[i].Bytes()
	}
	return n
}

var (
	summaryCounters = stats.NewCacheCounters("core/summary-trace")
	summaryMemo     = runner.NewWeighted[summaryKey, summaryRun](summaryMemoBytes, summaryRunBytes, summaryCounters)
)

func init() { summaryCounters.SetSizer(summaryMemo.Len) }

// useSummaryMemo reports whether the run of the plan k names goes
// through the summary memo: it must trace into a summary sink, and the
// layer's op grid must be within panelOpBudget, as the trace cache's are.
func useSummaryMemo(opts sim.Options, k planKey) bool {
	return opts.Trace.Summary() && k.p.OpCount() <= panelOpBudget
}

// memoSummaryRun serves the summary-traced run of the plan k names from
// the memo, or on a miss runs the program build returns one-shot on a
// private summary sink and keeps the outcome and the folded tracks; either
// way it appends the tracks to the caller's sink. Concurrent runs of one
// plan share one flight: the first runs it, the rest wait for its record,
// lending their worker slots for the wait (runner.Await).
func memoSummaryRun(cfg config.NPU, opts sim.Options, k planKey, multi, shared bool, build func() *schedule.Program) LayerOutcome {
	key := summaryKey{planKey: k, fp: cfg.Fingerprint(), freeDY: opts.FreeDYOnDW, multi: multi, shared: shared}
	prefix := opts.TrackPrefix(multi)
	r, wait, lead := summaryMemo.Lookup(key)
	if lead {
		// Deferred, so that a panicking leader still releases its waiters.
		defer func() { summaryMemo.Finish(key, r, r.tracks != nil) }()
	} else if wait != nil {
		r, _ = runner.Await(wait)
	}
	// Fold never returns nil tracks: they are nil on a miss, or when the
	// flight's leader panicked, and then this caller runs the plan.
	if r.tracks == nil {
		private := opts
		private.Trace = trace.NewSummary()
		r.out = runProgram(cfg, private, nil, multi, shared, build)
		r.tracks = private.Trace.Fold(prefix)
	}
	opts.Trace.Append(prefix, r.tracks)
	return r.out
}
