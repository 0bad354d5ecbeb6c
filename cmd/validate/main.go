// Command validate proves the paper's "no extra computation, identical
// gradients" claim over the whole model zoo: for every layer of every
// workload it executes the baseline, interleaved, rearranged and
// partitioned schedules numerically (on deterministic matrices, scaled
// down to keep runtimes sane) and checks the resulting dX/dW against
// reference matrix products. With -refcheck every residency simulation is
// additionally replayed through the internal/refmodel oracle and must
// agree bit-exactly on every counter.
//
// Usage:
//
//	validate                  # whole zoo, scaled layers
//	validate -model res -v    # one model, per-layer progress
//	validate -refcheck        # also diff every simulation against the oracle
//	validate -manifest v.json # also write the run manifest (igostat diff)
package main

import (
	"flag"
	"fmt"
	"os"

	"igosim/internal/metrics"
	"igosim/internal/runner"
	"igosim/internal/trace"
	"igosim/internal/validate"
)

func main() {
	var (
		modelName  = flag.String("model", "", "validate a single model (default: whole zoo)")
		suiteName  = flag.String("suite", "server", "zoo suite: edge or server")
		verbose    = flag.Bool("v", false, "per-layer progress")
		jobs       = flag.Int("j", 0, "parallel validation workers (0 = GOMAXPROCS)")
		refCheck   = flag.Bool("refcheck", false, "replay every simulation through the refmodel oracle and require bit-exact counters")
		traceOut   = flag.String("trace", "", "write Chrome trace-event JSON of the residency simulations to this file (view in Perfetto)")
		report     = flag.Bool("report", false, "print the trace-derived report: stall attribution, SPM occupancy, reuse distances")
		manifest   = flag.String("manifest", "", "write the deterministic run manifest (JSON) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	stopProf, err := metrics.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	runner.SetParallelism(*jobs)
	stopTrace := trace.StartCLI(*traceOut, *report)

	sum, err := validate.Run(validate.Options{
		Suite:    *suiteName,
		Model:    *modelName,
		Verbose:  *verbose,
		RefCheck: *refCheck,
		Trace:    trace.Active(),
		Out:      os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	if err := stopTrace(); err != nil {
		fatal(err)
	}
	if *manifest != "" {
		m := metrics.NewManifest("validate")
		if err := m.SetFingerprint(struct {
			Tool     string `json:"tool"`
			Suite    string `json:"suite"`
			Model    string `json:"model"`
			RefCheck bool   `json:"refcheck"`
		}{"validate", *suiteName, *modelName, *refCheck}); err != nil {
			fatal(err)
		}
		m.Validate = &sum
		m.Finalize(metrics.Default())
		if err := m.WriteFile(*manifest); err != nil {
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "validate:", err)
	os.Exit(1)
}
