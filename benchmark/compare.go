package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// runRecord is one line of a -record file: a run's result and what ran.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// record appends a run's result to o.record, if set.
func record(o options, name string, res result) error {
	if o.record == "" {
		return nil
	}
	b, err := json.Marshal(runRecord{Workload: name, Seed: o.seed, Trace: o.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("record: %w", err)
	}
	return f.Close()
}

// calibrate runs each workload o.runs times with seeds o.seed, o.seed+1,
// ... and prints, for every declared metric of the mode, the median, the
// quartiles and the relative spread (IQR over median) beside the bound.
func calibrate(spec *benchSpec, names []string, o options) error {
	declared := spec.EndToEnd
	if o.trace == 1 {
		declared = spec.PerLayer
	}
	for _, name := range names {
		var runs []result
		for r := 0; r < o.runs; r++ {
			ro := o
			ro.seed = o.seed + uint64(r)
			res, err := runWorkload(spec, name, ro)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, ro.seed, err)
			}
			if err := record(ro, name, res); err != nil {
				return err
			}
			runs = append(runs, res)
		}
		fmt.Printf("# calibration %s: %d runs, seeds %d..%d\n", name, o.runs, o.seed, o.seed+uint64(o.runs)-1)
		for _, m := range declared {
			vs := values(runs, m.Name)
			q1, q3 := quartiles(vs)
			med := median(vs)
			fmt.Printf("%-14s %-30s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%  bound %3.0f%%\n",
				name, m.Name, med, q1, q3, 100*relSpread(vs), 100*m.Bound)
		}
	}
	return nil
}

// compareMain implements `compare parent.jsonl change.jsonl`: for every
// end-to-end metric and workload present in both files it reports gain,
// same, regression or unresolved, and exits 1 if anything regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: igobench compare parent.jsonl change.jsonl")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "igobench: %v\n", err)
		return 2
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "igobench: %v\n", err)
		return 2
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "igobench: %v\n", err)
		return 2
	}
	regressed := false
	for _, v := range compare(spec, parent, change) {
		fmt.Println(v)
		regressed = regressed || v.verdict == verdictRegression
	}
	if regressed {
		return 1
	}
	return 0
}

// readRecords reads a -record file's untraced runs, by workload, in order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

const (
	verdictGain       = "gain"
	verdictSame       = "same"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// setupFloorS is setup_s's absolute tolerance: a process start a few
// milliseconds slower or faster is noise, whatever its share.
const setupFloorS = 0.020

// verdict is one (workload, metric) comparison.
type verdict struct {
	workload, metric string
	parent, change   []float64
	pairs, wins      int
	bound            float64
	verdict, why     string
}

func (v verdict) String() string {
	pm, cm := median(v.parent), median(v.change)
	delta := "     -  "
	if pm != 0 {
		delta = fmt.Sprintf("%+7.2f%%", 100*(cm-pm)/math.Abs(pm))
	}
	return fmt.Sprintf("%-14s %-14s parent %-12.6g change %-12.6g %s  bound %3.0f%%  wins %d/%d  %s%s",
		v.workload, v.metric, pm, cm, delta, 100*v.bound, v.wins, v.pairs, v.verdict, v.why)
}

// compare applies the rule for every workload in both sets: a gain needs
// at least 10 pairs (parent run i against change run i), the change ahead
// in 9 of every 10, and medians further apart than the parent's IQR (for
// setup_s also than setupFloorS); a regression is a change median worse
// than the parent's by more than the metric's bound (for setup_s also by
// more than setupFloorS). A metric whose interquartile range on either side
// exceeds that same tolerance is unresolved unless every change run beats
// every parent run. More failed operations, or a change run whose outputs
// were wrong, is a regression at zero tolerance.
func compare(spec *benchSpec, parent, change map[string][]result) []verdict {
	var out []verdict
	for _, w := range spec.Workloads {
		p, c := parent[w.Name], change[w.Name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		pf, cf := failureRate(p), failureRate(c)
		v := verdict{workload: w.Name, metric: "error_rate", parent: []float64{pf}, change: []float64{cf}, verdict: verdictSame}
		if cf > pf {
			v.verdict = verdictRegression
		}
		for _, r := range c {
			if !r.Correct {
				v.verdict, v.why = verdictRegression, " (change output incorrect)"
			}
		}
		out = append(out, v)
		for _, m := range spec.EndToEnd {
			out = append(out, judge(w.Name, m, values(p, m.Name), values(c, m.Name)))
		}
	}
	return out
}

func judge(workload string, m metricSpec, pv, cv []float64) verdict {
	v := verdict{workload: workload, metric: m.Name, parent: pv, change: cv, bound: m.Bound}
	// better reports whether a reads better than b.
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v.pairs = min(len(pv), len(cv))
	for i := 0; i < v.pairs; i++ {
		if better(cv[i], pv[i]) {
			v.wins++
		}
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p)
		}
	}
	pm, cm := median(pv), median(cv)
	worse := cm - pm
	if m.Better == "higher" {
		worse = -worse
	}
	// floor is the smallest difference that is not noise, however small a
	// share of the median it is.
	floor := 0.0
	if m.Name == "setup_s" {
		floor = setupFloorS
	}
	// tolerance is the change in a metric whose median is med that still
	// counts as noise. Both the regression and the spread test use it.
	tolerance := func(med float64) float64 { return max(m.Bound*math.Abs(med), floor) }
	q1, q3 := quartiles(pv)
	cq1, cq3 := quartiles(cv)
	switch {
	case (q3-q1 > tolerance(pm) || cq3-cq1 > tolerance(cm)) && !allBetter:
		v.verdict = verdictUnresolved
		v.why = fmt.Sprintf(" (spread %.1f%% exceeds the bound)", 100*max(relSpread(pv), relSpread(cv)))
	case worse > tolerance(pm):
		v.verdict = verdictRegression
	case v.pairs >= 10 && 10*v.wins >= 9*v.pairs && -worse > max(q3-q1, floor):
		v.verdict = verdictGain
	default:
		v.verdict = verdictSame
	}
	return v
}

func failureRate(rs []result) float64 {
	var attempted, failed int
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// values returns one metric's value from each run, in run order.
func values(rs []result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if mv, ok := r.Metrics[name]; ok {
			out = append(out, mv.Value)
		}
	}
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// relSpread is the interquartile range as a share of the median.
func relSpread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	if med := median(vs); med != 0 {
		return (q3 - q1) / math.Abs(med)
	}
	return 0
}

// nearestRank returns the q-quantile of sorted samples by nearest rank.
func nearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}
