package validate

import (
	"strings"
	"testing"

	"igosim/internal/dram"
	"igosim/internal/sim"
)

// smallOpts keeps the pass to one model so the failure-path tests stay
// quick; res18 is the smallest member of the edge zoo.
func smallOpts() Options {
	return Options{Suite: "edge", Model: "res18", RefCheck: true}
}

func TestRunRefCheckPasses(t *testing.T) {
	var out strings.Builder
	opts := smallOpts()
	opts.Out = &out
	sum, err := Run(opts)
	if err != nil {
		t.Fatalf("refcheck pass failed: %v", err)
	}
	if !strings.Contains(out.String(), "bit-match the refmodel oracle") {
		t.Fatalf("summary does not report the oracle check:\n%s", out.String())
	}
	if sum.Layers == 0 || sum.Checks == 0 || sum.RefChecks == 0 {
		t.Fatalf("summary counters empty: %+v", sum)
	}
	// Four whole-layer schedules per layer are oracle-checked on one core;
	// the two-core partition checks come on top.
	if sum.RefChecks <= 4*sum.Layers {
		t.Fatalf("%d oracle checks over %d layers: no multi-core partition was checked", sum.RefChecks, sum.Layers)
	}
}

// TestRunDetectsCorruptedMultiCoreMetric is TestRunDetectsCorruptedMetric
// for the two-core partition runs: any corrupted multi-core field must fail
// the pass, naming the field and the multi-core check.
func TestRunDetectsCorruptedMultiCoreMetric(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*sim.MultiResult)
		want    string
	}{
		{"cycles", func(r *sim.MultiResult) { r.Cycles++ }, "Cycles"},
		{"shared-hits", func(r *sim.MultiResult) { r.SharedHits++ }, "SharedHits"},
		{"aggregate-traffic", func(r *sim.MultiResult) { r.Traffic.AddRead(dram.ClassDY, 64) }, "Traffic.Read[dY]"},
		{"core0-hits", func(r *sim.MultiResult) { r.PerCore[0].SPM.Hits-- }, "PerCore[0].SPM.Hits"},
		{"core1-mem-cycles", func(r *sim.MultiResult) { r.PerCore[1].MemCycles += 3 }, "PerCore[1].MemCycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts()
			opts.CorruptMulti = tc.corrupt
			_, err := Run(opts)
			if err == nil {
				t.Fatalf("corrupting %s went undetected", tc.name)
			}
			if !strings.Contains(err.Error(), "on 2 cores: refcheck") {
				t.Fatalf("error does not name the multi-core refcheck: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not name the corrupted field %q: %v", tc.want, err)
			}
		})
	}
}

// TestRunDetectsCorruptedMetric is the regression test for the validation
// command's exit discipline: when any simulated metric diverges from the
// oracle, Run must return an error (which main turns into a non-zero exit)
// and the error must say which metric diverged and where. One corruption
// per Result field proves no counter is outside the differential net.
func TestRunDetectsCorruptedMetric(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*sim.Result)
		want    string // substring the error must contain
	}{
		{"cycles", func(r *sim.Result) { r.Cycles++ }, "Cycles"},
		{"compute-cycles", func(r *sim.Result) { r.ComputeCycles-- }, "ComputeCycles"},
		{"mem-cycles", func(r *sim.Result) { r.MemCycles += 7 }, "MemCycles"},
		{"ops", func(r *sim.Result) { r.Ops++ }, "Ops"},
		{"hits", func(r *sim.Result) { r.SPM.Hits++ }, "Hits"},
		{"misses", func(r *sim.Result) { r.SPM.Misses-- }, "Misses"},
		{"evictions", func(r *sim.Result) { r.SPM.Evictions++ }, "Evictions"},
		{"spills", func(r *sim.Result) { r.Spills++ }, "Spills"},
		{"dy-read-traffic", func(r *sim.Result) { r.Traffic.AddRead(dram.ClassDY, 64) }, "Traffic.Read[dY]"},
		{"dw-write-traffic", func(r *sim.Result) { r.Traffic.AddWrite(dram.ClassDW, 64) }, "Traffic.Write[dW]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts()
			opts.Corrupt = tc.corrupt
			_, err := Run(opts)
			if err == nil {
				t.Fatalf("corrupting %s went undetected", tc.name)
			}
			if !strings.Contains(err.Error(), "refcheck") {
				t.Fatalf("error does not name the refcheck stage: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error does not name the corrupted metric %q: %v", tc.want, err)
			}
		})
	}
}

// TestRunWithoutRefCheckStillValidates pins the default mode: structural
// and numeric validation run and the summary omits the oracle line.
func TestRunWithoutRefCheckStillValidates(t *testing.T) {
	var out strings.Builder
	opts := smallOpts()
	opts.RefCheck = false
	opts.Out = &out
	sum, err := Run(opts)
	if err != nil {
		t.Fatalf("plain pass failed: %v", err)
	}
	if sum.RefChecks != 0 {
		t.Fatalf("ref checks counted without -refcheck: %+v", sum)
	}
	s := out.String()
	if !strings.Contains(s, "gradients bit-match the reference") {
		t.Fatalf("summary missing:\n%s", s)
	}
	if strings.Contains(s, "refmodel oracle") {
		t.Fatalf("oracle line printed without -refcheck:\n%s", s)
	}
}

func TestRunUnknownModelFails(t *testing.T) {
	opts := smallOpts()
	opts.Model = "no-such-model"
	if _, err := Run(opts); err == nil {
		t.Fatal("unknown model accepted")
	}
}
