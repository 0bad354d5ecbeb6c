package proptest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"igosim/internal/sim"
)

var errTooManyKTiles = errors.New("synthetic: more than one K tile")

// casesPerInvariant is the sample size of each property inside plain
// `go test`; the generator's op budget (maxOpsPerCase) keeps the whole
// suite well under the one-minute ceiling.
const casesPerInvariant = 200

func TestPropertyStructure(t *testing.T) {
	t.Parallel()
	Run(t, "structure", casesPerInvariant, CheckStructure)
}

func TestPropertyOracle(t *testing.T) {
	t.Parallel()
	Run(t, "oracle", casesPerInvariant, CheckOracle)
}

func TestPropertyMultiOracle(t *testing.T) {
	t.Parallel()
	Run(t, "multi-oracle", casesPerInvariant, CheckMultiOracle)
}

func TestPropertyCompiledEquivalence(t *testing.T) {
	t.Parallel()
	Run(t, "compiled-equivalence", casesPerInvariant, CheckCompiledEquivalence)
}

func TestPropertyResolvedReplay(t *testing.T) {
	t.Parallel()
	Run(t, "resolved-replay", casesPerInvariant, CheckResolvedReplay)
}

func TestPropertyPermutedProgram(t *testing.T) {
	t.Parallel()
	Run(t, "permuted-program", casesPerInvariant, CheckPermutedProgram)
}

func TestPropertyMultiReplay(t *testing.T) {
	t.Parallel()
	Run(t, "multi-replay", casesPerInvariant, CheckMultiReplay)
}

func TestPropertyCycleBounds(t *testing.T) {
	t.Parallel()
	Run(t, "cycle-bounds", casesPerInvariant, CheckCycleBounds)
}

func TestPropertyConservation(t *testing.T) {
	t.Parallel()
	Run(t, "conservation", casesPerInvariant, CheckConservation)
}

func TestPropertyPartition(t *testing.T) {
	t.Parallel()
	Run(t, "partition", casesPerInvariant, CheckPartition)
}

func TestPropertyDYReuse(t *testing.T) {
	t.Parallel()
	Run(t, "dy-reuse", casesPerInvariant, CheckDYReuse)
}

// TestGenCaseWellFormed proves the generator only emits cases the engine
// accepts: configs validate and normalization is idempotent.
func TestGenCaseWellFormed(t *testing.T) {
	t.Parallel()
	for i := 0; i < 500; i++ {
		c := GenCase(NewSource(uint64(i)))
		if err := c.Config().Validate(); err != nil {
			t.Fatalf("case %d: %v\n  %v", i, err, c)
		}
		if n := c.normalize(); n != c {
			t.Fatalf("case %d not normalization-fixed:\n  got  %v\n  want %v", i, c, n)
		}
		mt, kt, nt := c.Tiling.Counts(c.Dims)
		if mt*kt*nt > maxOpsPerCase {
			t.Fatalf("case %d exceeds op budget: %dx%dx%d", i, mt, kt, nt)
		}
	}
}

// TestGenCaseDeterministic pins generation to the seed alone.
func TestGenCaseDeterministic(t *testing.T) {
	t.Parallel()
	for i := 0; i < 50; i++ {
		a := GenCase(NewSource(uint64(i) * 977))
		b := GenCase(NewSource(uint64(i) * 977))
		if a != b {
			t.Fatalf("seed %d: %v != %v", i*977, a, b)
		}
	}
}

// TestGenCaseCoversVariants proves the sampler reaches every schedule
// variant and every partitioning scheme, so no invariant silently runs
// against a single code path.
func TestGenCaseCoversVariants(t *testing.T) {
	t.Parallel()
	variants := make(map[Variant]int)
	schemes := make(map[string]int)
	for i := 0; i < 600; i++ {
		c := GenCase(NewSource(uint64(i)))
		variants[c.Variant]++
		schemes[c.Scheme.String()]++
	}
	for v := Variant(0); v < NumVariants; v++ {
		if variants[v] == 0 {
			t.Errorf("variant %v never generated", v)
		}
	}
	if len(schemes) != 3 {
		t.Errorf("schemes sampled: %v, want all 3", schemes)
	}
}

// TestGenCaseReachesPressure proves the sampled case space includes the
// interesting regime: some generated cases must actually spill live
// partial sums, and some must evict clean tiles, otherwise the oracle
// agreement property would be vacuous for the pressure paths.
func TestGenCaseReachesPressure(t *testing.T) {
	t.Parallel()
	var spilled, evicted int
	for i := 0; i < 300; i++ {
		c := GenCase(NewSource(uint64(i)))
		r := sim.RunSchedules(c.Config(), sim.Options{}, c.Schedules()...)
		if r.Spills > 0 {
			spilled++
		}
		if r.SPM.Evictions > 0 {
			evicted++
		}
	}
	if spilled == 0 || evicted == 0 {
		t.Fatalf("300 cases produced %d spilling and %d evicting runs; generator misses the pressure regime", spilled, evicted)
	}
	t.Logf("pressure coverage: %d/300 cases spill, %d/300 evict", spilled, evicted)
}

// TestGenCaseReachesMultiCoreRegimes proves the multi-oracle property is
// not vacuous: generated multi-core workloads span one to four cores and
// one or two phases, and some of them spill live partial sums and hit
// across cores on a shared scratchpad.
func TestGenCaseReachesMultiCoreRegimes(t *testing.T) {
	t.Parallel()
	var spilled, shared int
	cores := make(map[int]int)
	phases := make(map[int]int)
	for i := 0; i < 300; i++ {
		c := GenCase(NewSource(uint64(i)))
		cores[c.Cores]++
		phases[c.Phases]++
		r := runPhases(c.MultiConfig(), sim.Options{}, c.MultiPhases(), true)
		if r.SharedHits > 0 {
			shared++
		}
		for _, pc := range r.PerCore {
			if pc.Spills > 0 {
				spilled++
				break
			}
		}
	}
	if len(cores) != 4 || len(phases) != 2 {
		t.Fatalf("cores sampled %v, phases %v: want 1-4 cores and 1-2 phases", cores, phases)
	}
	if spilled == 0 || shared == 0 {
		t.Fatalf("300 multi-core cases: %d spill, %d hit across cores; generator misses a regime", spilled, shared)
	}
	t.Logf("multi-core coverage: %d/300 cases spill, %d/300 hit across cores", spilled, shared)
}

// TestShrinkMinimisesSyntheticPredicate drives Shrink against a predicate
// with a known minimal failing shape — "K >= 10" must shrink to exactly
// K == 10 — and asserts every independent coordinate reaches its floor.
func TestShrinkMinimisesSyntheticPredicate(t *testing.T) {
	t.Parallel()
	c := GenCase(NewSource(7))
	c.Dims.K = 37
	c = c.normalize()
	fails := func(m Case) bool { return m.Dims.K >= 10 }
	min := Shrink(c, fails, 10_000)
	if min.Dims.K != 10 {
		t.Fatalf("shrunk K = %d, want 10 (case %v)", min.Dims.K, min)
	}
	if min.Dims.M != 1 || min.Dims.N != 1 {
		t.Fatalf("independent dims not minimised: %v", min)
	}
	if min.Variant != VariantBaseline || min.Latency != 0 || min.XFactor != 0 {
		t.Fatalf("independent knobs not minimised: %v", min)
	}
}

// TestRunReportsShrunkCounterexample checks the runner's failure path end
// to end through a fake Failer: a property that rejects any case with more
// than one K tile must fail, and the reported minimal case must sit right
// at the boundary (exactly two K tiles).
func TestRunReportsShrunkCounterexample(t *testing.T) {
	t.Parallel()
	f := &fakeFailer{}
	Run(f, "synthetic-ktiles", 50, func(c Case) error {
		_, kt, _ := c.Tiling.Counts(c.Dims)
		if kt > 1 {
			return errTooManyKTiles
		}
		return nil
	})
	if !f.failed {
		t.Fatal("runner passed a property that must fail")
	}
	if !strings.Contains(f.msg, "minimal case") || !strings.Contains(f.msg, errTooManyKTiles.Error()) {
		t.Fatalf("failure message lacks the counterexample: %q", f.msg)
	}
	// The reported case is embedded in the message; reconstruct the
	// boundary condition from a fresh shrink of the same property instead.
	min, err := RunPure("synthetic-ktiles", 50, func(c Case) error {
		_, kt, _ := c.Tiling.Counts(c.Dims)
		if kt > 1 {
			return errTooManyKTiles
		}
		return nil
	})
	if err == nil {
		t.Fatal("run found no counterexample")
	}
	if _, kt, _ := min.Tiling.Counts(min.Dims); kt != 2 {
		t.Fatalf("minimal counterexample has %d K tiles, want the boundary 2: %v", kt, min)
	}
}

type fakeFailer struct {
	failed bool
	msg    string
	logs   []string
}

func (f *fakeFailer) Helper() {}
func (f *fakeFailer) Logf(format string, args ...any) {
	f.logs = append(f.logs, format)
}
func (f *fakeFailer) Fatalf(format string, args ...any) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
}

func TestPropertyAnalyticBounds(t *testing.T) {
	t.Parallel()
	Run(t, "analytic-bounds", casesPerInvariant, CheckAnalyticBounds)
}
