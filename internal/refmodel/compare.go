package refmodel

import (
	"fmt"
	"strings"

	"igosim/internal/dram"
	"igosim/internal/sim"
)

// Compare checks a simulator result against the oracle's counts and returns
// a descriptive error listing every field that disagrees, or nil when the
// two are bit-identical. The comparison is exact: the engine and the oracle
// consume the same hardware cost primitives, so even cycle counts must
// match to the last digit.
func Compare(got sim.Result, want Counts) error {
	var d differ
	d.result("", got, want)
	return d.err()
}

// CompareMulti is Compare for multi-core runs: the makespan, cross-core
// hits, aggregate traffic and every core's result, each divergent field
// named (per-core fields as PerCore[i].<field>).
func CompareMulti(got sim.MultiResult, want MultiCounts) error {
	var d differ
	d.add("Cycles", got.Cycles, want.Cycles)
	d.add("SharedHits", got.SharedHits, want.SharedHits)
	d.traffic("Traffic", got.Traffic, want.Traffic)
	d.add("len(PerCore)", int64(len(got.PerCore)), int64(len(want.PerCore)))
	for i := range min(len(got.PerCore), len(want.PerCore)) {
		d.result(fmt.Sprintf("PerCore[%d].", i), got.PerCore[i], want.PerCore[i])
	}
	return d.err()
}

// differ accumulates named field disagreements.
type differ struct{ diffs []string }

func (d *differ) add(field string, got, want int64) {
	if got != want {
		d.diffs = append(d.diffs, fmt.Sprintf("%s: sim %d, oracle %d", field, got, want))
	}
}

func (d *differ) traffic(prefix string, got, want dram.Traffic) {
	for _, c := range dram.Classes() {
		d.add(fmt.Sprintf("%s.Read[%v]", prefix, c), got.Read[c], want.Read[c])
		d.add(fmt.Sprintf("%s.Write[%v]", prefix, c), got.Write[c], want.Write[c])
	}
}

func (d *differ) result(prefix string, got sim.Result, want Counts) {
	d.add(prefix+"Cycles", got.Cycles, want.Cycles)
	d.add(prefix+"ComputeCycles", got.ComputeCycles, want.ComputeCycles)
	d.add(prefix+"MemCycles", got.MemCycles, want.MemCycles)
	d.add(prefix+"Ops", got.Ops, want.Ops)
	d.add(prefix+"SPM.Hits", got.SPM.Hits, want.Hits)
	d.add(prefix+"SPM.Misses", got.SPM.Misses, want.Misses)
	d.add(prefix+"SPM.Evictions", got.SPM.Evictions, want.Evictions)
	d.add(prefix+"Spills", got.Spills, want.Spills)
	d.traffic(prefix+"Traffic", got.Traffic, want.Traffic)
}

func (d *differ) err() error {
	if len(d.diffs) == 0 {
		return nil
	}
	return fmt.Errorf("refmodel: simulator disagrees with oracle on %d field(s): %s",
		len(d.diffs), strings.Join(d.diffs, "; "))
}
