package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"igosim/internal/bench"
	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dse"
	"igosim/internal/proptest"
	"igosim/internal/serve"
	"igosim/internal/serve/loadtest"
	"igosim/internal/sim"
	zoo "igosim/internal/workload"
)

// workload is one benchmark traffic mix. prepare builds the inputs from the
// seed and starts whatever the timed phase talks to; setup_s covers it
// together with process start. small shrinks the inputs for the unit test;
// the job records its spans on tr, which is nil in untraced rounds.
type workload struct {
	name    string
	prepare func(seed uint64, small bool, tr *tracer) (job, error)
}

// The workloads and why each exists are documented in README.md and
// BENCHMARK.json; the comments on the prepare functions say what each one
// stresses.
var workloads = []workload{
	{"serve-mixed", prepareServeMixed},
	{"serve-unique", prepareServeUnique},
	{"sweep-dse", prepareSweep},
	{"gpu-bigstream", prepareGPU},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// job is one prepared workload instance.
type job interface {
	// run executes the timed phase, recording every operation.
	run(rec *recorder)
	// check verifies the outputs of run and returns their digest.
	check() (digest string, err error)
	// layerMetrics adds the workload's own per-layer metrics.
	layerMetrics(m map[string]float64)
	// points lists the distinct simulation points the workload covered, in
	// first-use order; the traced probes sample them.
	points() []point
	close()
}

// point is one simulation the workload asks for: a model on a configuration
// under a policy, for a training step or only its backward pass.
type point struct {
	cfg          config.NPU
	model        zoo.Model
	pol          core.Policy
	backwardOnly bool
}

// recorder collects the timed phase's operations. Safe for concurrent use.
type recorder struct {
	mu     sync.Mutex
	ops    int
	failed int
	lat    []int64
}

// call records one user-visible call (a request, or a whole sweep or
// study run): its latency and the operations it covered, failed or not.
func (r *recorder) call(lat time.Duration, ops, failed int) {
	r.mu.Lock()
	r.lat = append(r.lat, lat.Nanoseconds())
	r.ops += ops
	r.failed += failed
	r.mu.Unlock()
}

// prepareServeMixed: 8000 /simulate requests from the load-test generator,
// about 95% repeats. Its 384 distinct requests exceed the result cache's 256
// entries, so decode, canonicalize, fingerprint and the cache's admission
// and eviction do most of the work, and simulation little.
func prepareServeMixed(seed uint64, small bool, tr *tracer) (job, error) {
	n := 8000
	if small {
		n = 40
	}
	src := proptest.NewSource(seed)
	reqs := make([]serve.Request, n)
	for i := range reqs {
		reqs[i] = loadtest.GenRequest(src)
	}
	return startServe(reqs, tr)
}

// uniqueModels are the edge-suite models of serve-unique.
var uniqueModels = []string{"ncf", "dlrm", "mob", "res", "bert"}

// uniquePolicies are the policies serve-unique's combinations alternate.
var uniquePolicies = []string{"baseline", "partition"}

// prepareServeUnique: 450 requests, each distinct, so the result cache
// never hits and the core tuners, the layer memo and the sim residency
// cache do the work; the heap grows with traffic history. The 15 (model,
// SPM) combinations take turns, each with its own policy, baseline or
// partition, so both tuner families run. The combination count is odd on
// purpose: with equally many requests each, the median latency falls
// inside the middle combination's cluster, not in the gap between two
// clusters, where it would swing with every small shift in their relative
// cost. Each combination's requests cover the bandwidth range in equal
// strata, one request per stratum; the seed picks the order of the strata
// and a bandwidth within each, so it changes every request but barely any
// combination's total cost.
func prepareServeUnique(seed uint64, small bool, tr *tracer) (job, error) {
	n, models, spms := 450, uniqueModels, []int64{1, 2, 4}
	if small {
		n, models, spms = 6, models[:3], spms[:1]
	}
	combos := len(models) * len(spms)
	strata := n / combos
	src := proptest.NewSource(seed)
	order := make([][]int, combos)
	for c := range order {
		order[c] = make([]int, strata)
		for k := range order[c] {
			order[c][k] = k
		}
		for k := strata - 1; k > 0; k-- {
			x := src.IntRange(0, k)
			order[c][k], order[c][x] = order[c][x], order[c][k]
		}
	}
	const loGBs, hiGBs = 16.0, 64.0
	reqs := make([]serve.Request, n)
	for i := range reqs {
		c := i % combos
		frac := float64(src.IntRange(0, 1<<20)) / (1 << 20)
		reqs[i] = serve.Request{
			Workload:     models[c%len(models)],
			Suite:        "edge",
			NPU:          "small",
			SPMMiB:       spms[c/len(models)],
			Policy:       uniquePolicies[c%len(uniquePolicies)],
			BandwidthGBs: loGBs + (hiGBs-loGBs)*(float64(order[c][i/combos])+frac)/float64(strata),
		}
	}
	return startServe(reqs, tr)
}

// sweepModels are the models sweep-dse sweeps, one dse.Run each.
var sweepModels = []func() zoo.Model{zoo.BERTTiny, zoo.NCF, zoo.MobileNet}

// prepareSweep: a pruned dse.Run per model over bench.SweepSpace's shape
// extended to 1-2 cores, 1-8 MiB of SPM and all four policies, on 30
// log-spaced bandwidths whose endpoints the seed shifts by up to ±5%. The
// tiling axis keeps only the default cap: the 64 cap doubles the distinct
// programs and with them the peak RSS (to ~2.7 GB). Analytic pruning and
// resolve-once/replay-many dominate; HTTP is absent.
func prepareSweep(seed uint64, small bool, tr *tracer) (job, error) {
	src := proptest.NewSource(seed)
	scale := 0.95 + 0.1*float64(src.IntRange(0, 1000))/1000
	var spaces []dse.Space
	for _, m := range sweepModels {
		s := bench.SweepSpace()
		s.Model = m()
		s.Cores = []int{1, 2}
		s.SPMMiB = []float64{1, 2, 4, 8}
		s.TkCaps = []int{0}
		s.Policies = core.Policies()
		if small {
			s.Cores, s.SPMMiB = []int{1}, []float64{1, 2}
			s.BWGBs = s.BWGBs[:3]
			s.Policies = []core.Policy{core.PolBaseline, core.PolPartition}
		}
		bw := make([]float64, len(s.BWGBs))
		for i, v := range s.BWGBs {
			bw[i] = v * scale
		}
		s.BWGBs = bw
		spaces = append(spaces, s)
		if small {
			break
		}
	}
	return &sweepJob{spaces: spaces, tr: tr}, nil
}

type sweepJob struct {
	spaces  []dse.Space
	tr      *tracer
	results []dse.Result
	errs    []error
}

// run sweeps each space in turn; the whole round is one call, as one
// sweep invocation is for a CLI user.
//
//lint:walldomain the round's wall time is the measurement itself
func (j *sweepJob) run(rec *recorder) {
	start := time.Now()
	ops, failed := 0, 0
	for k, s := range j.spaces {
		from := j.tr.now()
		res, err := dse.Run(s, dse.Options{Prune: true, Eps: -1, EpsRed: -1})
		j.tr.add(span{Name: "dse.run", ID: int64(k), Start: from, End: j.tr.now()})
		ops += s.Size()
		if err != nil {
			failed += s.Size()
		}
		j.results = append(j.results, res)
		j.errs = append(j.errs, err)
	}
	rec.call(time.Since(start), ops, failed)
}

// check digests every space's rows in index order.
func (j *sweepJob) check() (string, error) {
	h := sha256.New()
	for k, res := range j.results {
		if j.errs[k] != nil {
			return "", fmt.Errorf("sweep %s: %w", j.spaces[k].Model.Abbr, j.errs[k])
		}
		if len(res.Rows) != j.spaces[k].Size() || !res.Complete {
			return "", fmt.Errorf("sweep %s: %d of %d rows", j.spaces[k].Model.Abbr, len(res.Rows), j.spaces[k].Size())
		}
		for _, row := range res.Rows {
			b, err := json.Marshal(row)
			if err != nil {
				return "", err
			}
			h.Write(append(b, '\n'))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (j *sweepJob) layerMetrics(m map[string]float64) {
	var rows, pruned, simulated, frontier int
	for _, res := range j.results {
		rows += len(res.Rows)
		pruned += res.Pruned
		simulated += res.Simulated
		frontier += len(res.Frontier)
	}
	if rows > 0 {
		m["dse.pruned_fraction"] = float64(pruned) / float64(rows)
	}
	m["dse.simulated"] = float64(simulated)
	m["dse.frontier_size"] = float64(frontier)
}

// points lists the simulated grid points; pruned points never reach core.
func (j *sweepJob) points() []point {
	var out []point
	for k, res := range j.results {
		s := j.spaces[k]
		for _, row := range res.Rows {
			if row.Status == dse.StatusSimulated {
				p := s.Point(row.Index)
				out = append(out, point{cfg: s.Config(p), model: s.Model, pol: p.Policy})
			}
		}
	}
	return out
}

func (j *sweepJob) close() {}

// prepareGPU: core.RunBackwardOnly on the GPU-like configuration for T5 and
// yolo (the edge-size variants the validation study runs) under the
// baseline and partition policies, with the bandwidth jittered ±10% by the
// seed. Bandwidth only changes costs, so the op streams stay the same: ~10⁵
// ops per layer, beyond the size gates of the panel and residency caches,
// so the one-shot engine and the interpreter do nearly all the work.
func prepareGPU(seed uint64, small bool, tr *tracer) (job, error) {
	src := proptest.NewSource(seed)
	cfg := config.GPULike()
	cfg = cfg.WithBandwidth(cfg.DRAMBandwidth * (0.9 + 0.2*float64(src.IntRange(0, 1000))/1000))
	j := &gpuJob{
		tr:     tr,
		models: []zoo.Model{zoo.T5Small(), zoo.YOLOv2Tiny()},
		pols:   []core.Policy{core.PolBaseline, core.PolPartition},
	}
	if small {
		j.models, j.pols = []zoo.Model{zoo.NCF()}, j.pols[:1]
	}
	for _, m := range j.models {
		for _, pol := range j.pols {
			j.pts = append(j.pts, point{cfg: cfg, model: m, pol: pol, backwardOnly: true})
		}
	}
	return j, nil
}

type gpuJob struct {
	tr     *tracer
	models []zoo.Model
	pols   []core.Policy
	pts    []point
	runs   []core.ModelRun
}

// run simulates each (model, policy) in turn; the whole round is one call,
// as one study run is for a CLI user.
//
//lint:walldomain the round's wall time is the measurement itself
func (j *gpuJob) run(rec *recorder) {
	start := time.Now()
	layers := 0
	for k, p := range j.pts {
		from := j.tr.now()
		run := core.RunBackwardOnly(p.cfg, sim.Options{}, p.model, p.pol)
		j.tr.add(span{Name: "core.backward_only", ID: int64(k), Start: from, End: j.tr.now()})
		layers += len(run.Bwd)
		j.runs = append(j.runs, run)
	}
	rec.call(time.Since(start), layers, 0)
}

// check digests each (model, policy)'s backward cycles and traffic.
func (j *gpuJob) check() (string, error) {
	h := sha256.New()
	for k, run := range j.runs {
		p := j.pts[k]
		if len(run.Bwd) == 0 || run.BwdCycles <= 0 {
			return "", fmt.Errorf("%s/%s: empty backward pass", p.model.Abbr, p.pol)
		}
		fmt.Fprintf(h, "%s %s %d %d\n", p.model.Abbr, p.pol, run.BwdCycles, run.BwdTraffic.Total())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (j *gpuJob) layerMetrics(map[string]float64) {}
func (j *gpuJob) points() []point                 { return j.pts }
func (j *gpuJob) close()                          {}
