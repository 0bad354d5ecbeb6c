package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"igosim/internal/config"
)

// errorBody decodes the structured error envelope.
func errorBody(t *testing.T, body []byte) Error {
	t.Helper()
	var env struct {
		Error Error `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the structured envelope: %v\n%s", err, body)
	}
	if env.Error.Code == "" {
		t.Fatalf("error body has no code: %s", body)
	}
	return env.Error
}

// TestErrorPaths drives every documented failure through the live handler
// and checks both the HTTP status and the structured error code.
func TestErrorPaths(t *testing.T) {
	badCfg := config.SmallNPU()
	badCfg.SPMBytes = -1

	cases := []struct {
		name     string
		path     string
		raw      string // raw body when set; otherwise req is marshaled
		req      any
		status   int
		code     string
		inErrMsg string
	}{
		{
			name:   "malformed json",
			path:   "/simulate",
			raw:    `{"workload": "ncf",`,
			status: http.StatusBadRequest,
			code:   CodeBadJSON,
		},
		{
			name:   "trailing garbage",
			path:   "/simulate",
			raw:    `{"workload": "ncf"} extra`,
			status: http.StatusBadRequest,
			code:   CodeBadJSON,
		},
		{
			name:   "unknown field",
			path:   "/simulate",
			raw:    `{"workload": "ncf", "wrokload": "oops"}`,
			status: http.StatusBadRequest,
			code:   CodeBadJSON,
		},
		{
			name:   "missing workload",
			path:   "/simulate",
			req:    Request{},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:     "unknown workload",
			path:     "/simulate",
			req:      Request{Workload: "alexnet"},
			status:   http.StatusNotFound,
			code:     CodeUnknownModel,
			inErrMsg: "alexnet",
		},
		{
			name:   "unknown policy",
			path:   "/simulate",
			req:    Request{Workload: "ncf", Policy: "yolo"},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:   "unknown preset",
			path:   "/simulate",
			req:    Request{Workload: "ncf", NPU: "huge"},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:   "config and npu together",
			path:   "/simulate",
			req:    Request{Workload: "ncf", NPU: "small", Config: &badCfg},
			status: http.StatusBadRequest,
			code:   CodeBadRequest,
		},
		{
			name:     "config failing Validate",
			path:     "/simulate",
			req:      Request{Workload: "ncf", Config: &badCfg},
			status:   http.StatusUnprocessableEntity,
			code:     CodeInvalidConfig,
			inErrMsg: "SPM",
		},
		{
			name: "report on multi-core config",
			path: "/simulate",
			req: Request{Workload: "ncf", NPU: "large", Cores: 4,
				Options: RequestOptions{Report: true}},
			status:   http.StatusUnprocessableEntity,
			code:     CodeInvalidConfig,
			inErrMsg: "single-core",
		},
		{
			name:   "oversized batch",
			path:   "/batch",
			req:    make([]Request, 5),
			status: http.StatusRequestEntityTooLarge,
			code:   CodeBatchTooLarge,
		},
	}

	_, ts := newTestServer(t, Options{MaxBatch: 4})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body []byte
			if tc.raw != "" {
				resp, err := ts.Client().Post(ts.URL+tc.path, "application/json",
					strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				status = resp.StatusCode
				buf := new(bytes.Buffer)
				buf.ReadFrom(resp.Body)
				body = buf.Bytes()
			} else {
				status, body, _ = post(t, ts.Client(), ts.URL+tc.path, tc.req)
			}
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, body)
			}
			e := errorBody(t, body)
			if e.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.code, e.Message)
			}
			if tc.inErrMsg != "" && !strings.Contains(e.Message, tc.inErrMsg) {
				t.Errorf("message %q does not mention %q", e.Message, tc.inErrMsg)
			}
		})
	}
}

// TestMethodNotAllowed checks the simulation endpoints refuse GET.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/simulate", "/batch"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestClientDisconnectMidRequest proves a client hanging up mid-simulation
// neither kills the server nor wastes the work: the detached computation
// finishes and populates the cache, so the retry hits. The client hangs
// up only once the server has started that computation (the result cache
// counted the leader's miss); a client that gave up before its request
// arrived would leave nothing to finish.
func TestClientDisconnectMidRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates one model point")
	}
	s, ts := newTestServer(t, Options{})
	req := Request{Workload: "dlrm", Suite: "edge", NPU: "small", Batch: 2}

	payload, _ := json.Marshal(req)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/simulate", bytes.NewReader(payload))
	hreq.Header.Set("Content-Type", "application/json")
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if resp, err := ts.Client().Do(hreq); err == nil {
			// The server may still have answered before the client bailed.
			resp.Body.Close()
		}
	}()
	for started := time.Now(); s.cache.results.Stats().Misses < 1; time.Sleep(time.Millisecond) {
		if time.Since(started) > 120*time.Second {
			t.Fatal("the request never reached the result cache")
		}
	}
	cancel()
	<-sent

	// The detached leader finishes regardless; poll until the result lands.
	// The ceiling is generous because this package shares the host with the
	// loadtest package under -race in CI — the pass case lands in well under
	// a second, so the slack never slows a healthy run.
	deadline := time.Now().Add(120 * time.Second)
	for s.cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected request never populated the cache")
		}
		time.Sleep(10 * time.Millisecond)
	}

	status, body, cacheStatus := post(t, ts.Client(), ts.URL+"/simulate", req)
	if status != http.StatusOK {
		t.Fatalf("retry after disconnect: status %d: %s", status, body)
	}
	if cacheStatus != StatusHit {
		t.Errorf("retry was %q, want %q: the abandoned computation's result should be cached", cacheStatus, StatusHit)
	}

	// And the server is still healthy.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after disconnect: %d", resp.StatusCode)
	}
}

// TestDrainingRefusesNewWork checks the graceful-shutdown handshake:
// draining flips /healthz to 503 and refuses new simulations with the
// shutting_down code.
func TestDrainingRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.StartDraining()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining: %d, want 503", resp.StatusCode)
	}

	status, body, _ := post(t, ts.Client(), ts.URL+"/simulate",
		Request{Workload: "ncf", Suite: "edge", NPU: "small"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("simulate while draining: status %d: %s", status, body)
	}
	if e := errorBody(t, body); e.Code != CodeShuttingDown {
		t.Errorf("code %q, want %q", e.Code, CodeShuttingDown)
	}
}
