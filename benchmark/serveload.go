package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/serve"
	zoo "igosim/internal/workload"
)

// requestIDHeader carries a request's index to the traced handler wrapper,
// so its handler span shares the client span's id. Untraced rounds omit it.
const requestIDHeader = "X-Bench-Request"

// serveJob drives an in-process serve.Server over loopback from one
// process: runtime.NumCPU() closed-loop clients, each sending its next
// request only after the previous reply, the way scripts calling igoserved
// do.
type serveJob struct {
	reqs     []serve.Request
	payloads [][]byte
	tr       *tracer
	hs       *http.Server
	served   chan error
	url      string
	client   *http.Client
	clients  int
	// first[i] is the index of the first request whose payload equals
	// request i's. Only those requests keep their reply body; the others
	// keep its SHA-256, so the client's memory does not grow with the
	// request count and the server's heap and RSS stay what is measured.
	first []int

	sums   [][sha256.Size]byte
	bodies [][]byte
	status []int
	cache  []string
	lat    []time.Duration
}

// startServe marshals the requests and starts the server and its client.
func startServe(reqs []serve.Request, tr *tracer) (*serveJob, error) {
	j := &serveJob{
		reqs:     reqs,
		payloads: make([][]byte, len(reqs)),
		tr:       tr,
		clients:  runtime.NumCPU(),
		first:    make([]int, len(reqs)),
		sums:     make([][sha256.Size]byte, len(reqs)),
		bodies:   make([][]byte, len(reqs)),
		status:   make([]int, len(reqs)),
		cache:    make([]string, len(reqs)),
		lat:      make([]time.Duration, len(reqs)),
	}
	firstOf := map[string]int{}
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		j.payloads[i] = b
		k, seen := firstOf[string(b)]
		if !seen {
			k = i
			firstOf[string(b)] = i
		}
		j.first[i] = k
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{})
	handler := srv.Handler()
	if tr != nil {
		handler = tracedHandler(tr, handler)
	}
	j.hs = &http.Server{Handler: handler}
	j.served = make(chan error, 1)
	go func() { j.served <- j.hs.Serve(ln) }()
	j.url = "http://" + ln.Addr().String() + "/simulate"
	// The default transport keeps only two idle connections per host; more
	// clients than that would churn connections.
	j.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        j.clients,
		MaxIdleConnsPerHost: j.clients,
	}}
	return j, nil
}

// tracedHandler wraps the server's handler in a serve.handler span.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		from := tr.now()
		h.ServeHTTP(w, r)
		tr.add(span{Name: "serve.handler", ID: id, Parent: "serve.request", Start: from, End: tr.now()})
	})
}

func (j *serveJob) run(rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < j.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(j.reqs) {
					return
				}
				j.send(i, rec)
			}
		}()
	}
	wg.Wait()
}

// send posts request i and waits for the whole reply.
//
//lint:walldomain client-side request latency is the measurement itself
func (j *serveJob) send(i int, rec *recorder) {
	req, err := http.NewRequest(http.MethodPost, j.url, bytes.NewReader(j.payloads[i]))
	if err != nil {
		rec.call(0, 1, 1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if j.tr != nil {
		req.Header.Set(requestIDHeader, strconv.Itoa(i))
	}
	from := j.tr.now()
	start := time.Now()
	resp, err := j.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		j.status[i] = resp.StatusCode
		j.cache[i] = resp.Header.Get("X-Igosim-Cache")
	}
	j.lat[i] = time.Since(start)
	failed := 0
	if err != nil || j.status[i] != http.StatusOK {
		failed = 1
	}
	j.sums[i] = sha256.Sum256(body)
	if j.first[i] == i || failed == 1 {
		j.bodies[i] = body
	}
	rec.call(j.lat[i], 1, failed)
	j.tr.add(span{Name: "serve.request", ID: int64(i), Start: from, End: j.tr.now()})
}

// check digests the bodies in request order. It also checks that repeated
// requests got byte-identical bodies (by SHA-256, so a repeat's body is its
// first request's) and that every body's fingerprint is serve.Fingerprint
// of its request.
func (j *serveJob) check() (string, error) {
	h := sha256.New()
	for i, k := range j.first {
		if j.status[i] != http.StatusOK {
			return "", fmt.Errorf("request %d: status %d: %s", i, j.status[i], j.bodies[i])
		}
		if j.sums[i] != j.sums[k] {
			return "", fmt.Errorf("requests %d and %d are identical but their bodies differ", k, i)
		}
		body := j.bodies[k]
		h.Write(body)
		if k != i {
			continue
		}
		want, err := serve.Fingerprint(j.reqs[i])
		if err != nil {
			return "", fmt.Errorf("request %d: %w", i, err)
		}
		var got struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return "", fmt.Errorf("request %d: body: %w", i, err)
		}
		if got.Fingerprint != want {
			return "", fmt.Errorf("request %d: body fingerprint %s, serve.Fingerprint %s", i, got.Fingerprint, want)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// layerMetrics splits client latency by the X-Igosim-Cache header; traced
// rounds add the handler's share and the cost of serve.Fingerprint.
func (j *serveJob) layerMetrics(m map[string]float64) {
	var hit, miss, report []float64
	for i, d := range j.lat {
		ms := float64(d.Nanoseconds()) / 1e6
		switch j.cache[i] {
		case serve.StatusHit:
			hit = append(hit, ms)
		case serve.StatusMiss:
			miss = append(miss, ms)
			if j.reqs[i].Options.Report {
				report = append(report, ms)
			}
		}
	}
	putQuantile(m, "serve.hit_ms.p50", hit, 0.5)
	putQuantile(m, "serve.miss_ms.p50", miss, 0.5)
	putQuantile(m, "serve.miss_ms.p99", miss, 0.99)
	putQuantile(m, "serve.report_ms.p50", report, 0.5)
	if j.tr == nil {
		return
	}
	handler := map[int64]float64{}
	var hms, transport []float64
	for _, s := range j.tr.snapshot() {
		if s.Name == "serve.handler" {
			handler[s.ID] = float64(s.End-s.Start) / 1e6
			hms = append(hms, handler[s.ID])
		}
	}
	for i, d := range j.lat {
		if h, ok := handler[int64(i)]; ok {
			transport = append(transport, float64(d.Nanoseconds())/1e6-h)
		}
	}
	putQuantile(m, "serve.handler_ms.p50", hms, 0.5)
	putQuantile(m, "serve.handler_ms.p99", hms, 0.99)
	putQuantile(m, "serve.transport_ms.p50", transport, 0.5)

	var total int64
	for i, r := range j.reqs {
		from := j.tr.now()
		serve.Fingerprint(r)
		to := j.tr.now()
		total += to - from
		j.tr.add(span{Name: "serve.fingerprint", ID: int64(i), Start: from, End: to})
	}
	m["serve.fingerprint_us.mean"] = float64(total) / 1e3 / float64(len(j.reqs))
}

// putQuantile stores the q-quantile of vs under name, if there are samples.
func putQuantile(m map[string]float64, name string, vs []float64, q float64) {
	if len(vs) == 0 {
		return
	}
	sort.Float64s(vs)
	m[name] = vs[min(int(q*float64(len(vs))), len(vs)-1)]
}

// requestPolicies maps the policy spellings the workloads send.
var requestPolicies = map[string]core.Policy{
	"baseline":   core.PolBaseline,
	"interleave": core.PolInterleave,
	"rearrange":  core.PolRearrange,
	"partition":  core.PolPartition,
}

// points resolves the distinct requests to simulation points the way the
// server's canonicalization does for the small preset: the preset, then
// its overrides.
func (j *serveJob) points() []point {
	var out []point
	for i, r := range j.reqs {
		if j.first[i] != i {
			continue
		}
		suite, err := zoo.SuiteFor(r.Suite)
		if err != nil {
			suite = zoo.ServerSuite()
		}
		m, err := zoo.ByAbbr(suite, r.Workload)
		if err != nil {
			continue
		}
		cfg := config.SmallNPU()
		if r.BandwidthGBs > 0 {
			cfg = cfg.WithBandwidth(r.BandwidthGBs * 1e9)
		}
		if r.SPMMiB > 0 {
			cfg.SPMBytes = r.SPMMiB << 20
		}
		if r.Batch > 0 {
			cfg = cfg.WithBatch(r.Batch)
		}
		out = append(out, point{cfg: cfg, model: m, pol: requestPolicies[r.Policy], backwardOnly: r.Options.BackwardOnly})
	}
	return out
}

// close drops the client's connections, stops the server and waits for it
// to exit.
func (j *serveJob) close() {
	j.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := j.hs.Shutdown(ctx); err != nil {
		j.hs.Close()
	}
	if err := <-j.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "igobench: serve: %v\n", err)
	}
}
