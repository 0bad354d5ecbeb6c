// Package serve is the simulation-as-a-service layer (DESIGN.md §3k): a
// stdlib-only JSON HTTP API over the simulator. Clients submit a
// (workload, NPU configuration, options) request and receive the schedule
// choice, cycles, per-class DRAM traffic, energy and optionally a trace
// report; /batch fans a request list out through internal/runner with the
// process-wide -j semantics.
//
// The Cycle/Wall split applies to the server exactly as it does to the
// CLIs: the server *process* is wall-domain (clocks, sockets, timeouts,
// latency histograms), but every response body is a pure Cycle-domain
// function of the canonicalized request — byte-identical at any
// parallelism, any cache state, any request interleaving. Everything that
// may legitimately vary (cache hit status, timings) travels in headers and
// /metrics, never in a body. Evaluate, the request→result function, is
// registered as a Cycle-domain entry point with the detflow lint, so "the
// body is deterministic" is a proven property, not a convention.
package serve

import (
	"fmt"
	"strings"

	"igosim/internal/config"
	"igosim/internal/core"
	"igosim/internal/dram"
	"igosim/internal/energy"
	"igosim/internal/metrics"
	"igosim/internal/sim"
	"igosim/internal/trace"
	"igosim/internal/workload"
)

// SchemaVersion names the response schema; it rides in every response so
// clients and cached bodies can be validated against the right shape.
const SchemaVersion = "igosim.serve/1"

// Request is one simulation query.
type Request struct {
	// Workload is the Table 4 abbreviation or full model name ("res",
	// "bert", "ResNet-50", ...). Required.
	Workload string `json:"workload"`
	// Suite selects the model-zoo variant set: "server" (default) or
	// "edge".
	Suite string `json:"suite,omitempty"`
	// Policy is the transformation level: "baseline", "interleave",
	// "rearrange" or "partition" (default "partition"). The paper's long
	// forms ("interleaving", "+rearrangement", "+datapartitioning") are
	// accepted too.
	Policy string `json:"policy,omitempty"`
	// NPU names a preset configuration: "small"/"edge", "large"/"server"
	// or "gpu". Exactly one of NPU and Config must be set.
	NPU string `json:"npu,omitempty"`
	// Config is a full custom configuration; it must pass Validate.
	Config *config.NPU `json:"config,omitempty"`
	// Cores/BandwidthGBs/SPMMiB/Batch/TkCap override the named preset
	// (ignored when Config is set); zero values leave the preset alone.
	Cores        int     `json:"cores,omitempty"`
	BandwidthGBs float64 `json:"bandwidth_gbs,omitempty"`
	SPMMiB       int64   `json:"spm_mib,omitempty"`
	Batch        int     `json:"batch,omitempty"`
	TkCap        int     `json:"tkcap,omitempty"`
	// Options select what the response carries.
	Options RequestOptions `json:"options,omitempty"`
}

// RequestOptions toggle optional response sections.
type RequestOptions struct {
	// BackwardOnly simulates only the backward pass (the Figure 17
	// measurement mode).
	BackwardOnly bool `json:"backward_only,omitempty"`
	// Baseline additionally simulates the conventional baseline and
	// reports the execution-time reduction against it.
	Baseline bool `json:"baseline,omitempty"`
	// Energy adds the 45nm energy breakdown (and savings, with Baseline).
	Energy bool `json:"energy,omitempty"`
	// Report adds the cycle-domain trace report (stall attribution, SPM
	// occupancy, reuse distances). Single-core configurations only.
	Report bool `json:"report,omitempty"`
}

// Response is one simulation result. Field order is the wire order
// (encoding/json emits struct fields in declaration order and sorts map
// keys), so marshaling is deterministic.
type Response struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model"`
	Config      string `json:"config"`
	Policy      string `json:"policy"`

	TotalCycles int64   `json:"total_cycles"`
	FwdCycles   int64   `json:"fwd_cycles"`
	BwdCycles   int64   `json:"bwd_cycles"`
	Seconds     float64 `json:"seconds"`

	// Layers lists the backward pass's per-layer schedule choices.
	Layers []LayerChoice `json:"layers"`

	// BwdRead/BwdWrite break the backward-pass DRAM traffic down by
	// tensor class, in bytes.
	BwdRead         map[string]int64 `json:"bwd_read"`
	BwdWrite        map[string]int64 `json:"bwd_write"`
	BwdTrafficBytes int64            `json:"bwd_traffic_bytes"`
	Spills          int64            `json:"spills"`

	// Baseline section (Options.Baseline).
	BaseCycles int64   `json:"base_cycles,omitempty"`
	Reduction  float64 `json:"reduction,omitempty"`

	// Energy section (Options.Energy), joules per training step.
	Energy *EnergyResult `json:"energy,omitempty"`

	// Report is the rendered trace report (Options.Report).
	Report string `json:"report,omitempty"`
}

// LayerChoice is one layer's chosen backward schedule.
type LayerChoice struct {
	Name   string `json:"name"`
	Order  string `json:"order"`
	Scheme string `json:"scheme"`
	Parts  int    `json:"parts"`
	Cycles int64  `json:"cycles"`
}

// EnergyResult is the per-component energy of the simulated training step.
type EnergyResult struct {
	DRAMJoules    float64 `json:"dram_j"`
	SPMJoules     float64 `json:"spm_j"`
	ComputeJoules float64 `json:"compute_j"`
	StaticJoules  float64 `json:"static_j"`
	TotalJoules   float64 `json:"total_j"`
	// Savings is the fractional energy reduction vs the baseline
	// (Options.Baseline only).
	Savings float64 `json:"savings,omitempty"`
}

// Error is the structured error body every non-200 response carries.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Error codes.
const (
	CodeBadJSON         = "bad_json"
	CodeBadRequest      = "bad_request"
	CodeUnknownModel    = "unknown_model"
	CodeInvalidConfig   = "invalid_config"
	CodeBatchTooLarge   = "batch_too_large"
	CodeDeadline        = "deadline_exceeded"
	CodeShuttingDown    = "shutting_down"
	CodeMethodNotWanted = "method_not_allowed"
)

func badRequest(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// resolved is a canonicalized request: every default filled, the
// configuration materialized. Its JSON form (via the embedded Request) is
// what the cache fingerprint hashes, so two requests that mean the same
// simulation share one fingerprint.
type resolved struct {
	req    Request
	model  workload.Model
	cfg    config.NPU
	policy core.Policy
}

// policyByName maps accepted policy spellings to levels.
func policyByName(s string) (core.Policy, bool) {
	switch strings.ToLower(s) {
	case "", "partition", "+datapartitioning":
		return core.PolPartition, true
	case "baseline":
		return core.PolBaseline, true
	case "interleave", "interleaving":
		return core.PolInterleave, true
	case "rearrange", "rearrangement", "+rearrangement":
		return core.PolRearrange, true
	}
	return 0, false
}

// presetByName maps accepted preset spellings to configurations.
func presetByName(s string) (config.NPU, bool) {
	switch strings.ToLower(s) {
	case "small", "edge":
		return config.SmallNPU(), true
	case "large", "server":
		return config.LargeNPU(), true
	case "gpu", "gpu-like":
		return config.GPULike(), true
	}
	return config.NPU{}, false
}

// canonicalize validates a request and fills every default, returning the
// resolved simulation point or a structured error. The returned resolved
// request is what gets fingerprinted: requests differing only in
// equivalent spellings ("partition" vs "", "small" vs "edge") canonicalize
// identically and share a cache entry.
func canonicalize(req Request) (resolved, *Error) {
	var r resolved

	suite := strings.ToLower(req.Suite)
	switch suite {
	case "", "large":
		suite = "server"
	case "small":
		suite = "edge"
	}
	models, err := workload.SuiteFor(suite)
	if err != nil {
		return r, badRequest(CodeBadRequest, "unknown suite %q (want server or edge)", req.Suite)
	}
	if req.Workload == "" {
		return r, badRequest(CodeBadRequest, "missing workload (one of %v)", workload.Abbrs(models))
	}
	model, err := workload.ByAbbr(models, req.Workload)
	if err != nil {
		return r, badRequest(CodeUnknownModel, "unknown workload %q in suite %q (one of %v)",
			req.Workload, suite, workload.Abbrs(models))
	}

	pol, ok := policyByName(req.Policy)
	if !ok {
		return r, badRequest(CodeBadRequest,
			"unknown policy %q (want baseline, interleave, rearrange or partition)", req.Policy)
	}

	var cfg config.NPU
	switch {
	case req.Config != nil && req.NPU != "":
		return r, badRequest(CodeBadRequest, "config and npu are mutually exclusive")
	case req.Config != nil:
		cfg = *req.Config
	default:
		name := req.NPU
		if name == "" {
			name = "large"
		}
		cfg, ok = presetByName(name)
		if !ok {
			return r, badRequest(CodeBadRequest, "unknown npu preset %q (want small, large or gpu)", req.NPU)
		}
		if req.Cores > 0 {
			cfg = cfg.WithCores(req.Cores)
		}
		if req.BandwidthGBs > 0 {
			cfg = cfg.WithBandwidth(req.BandwidthGBs * 1e9)
		}
		if req.SPMMiB > 0 {
			cfg.SPMBytes = req.SPMMiB << 20
		}
		if req.Batch > 0 {
			cfg = cfg.WithBatch(req.Batch)
		}
		if req.TkCap > 0 {
			cfg = cfg.WithTkCap(req.TkCap)
		}
	}
	if err := cfg.Validate(); err != nil {
		return r, badRequest(CodeInvalidConfig, "%v", err)
	}
	if req.Options.Report && cfg.Cores != 1 {
		return r, badRequest(CodeInvalidConfig,
			"trace reports require a single-core configuration (got %d cores)", cfg.Cores)
	}

	// The canonical request: spellings normalized, the materialized config
	// embedded, preset/override fields cleared. Its JSON is the
	// fingerprint input.
	r.req = Request{
		Workload: model.Abbr,
		Suite:    suite,
		Policy:   pol.String(),
		Config:   &cfg,
		Options:  req.Options,
	}
	r.model = model
	r.cfg = cfg
	r.policy = pol
	return r, nil
}

// fingerprint returns the SHA-256 hex digest of the canonical request —
// the result cache's key and the Fingerprint field of the response.
func (r resolved) fingerprint() (string, error) {
	return metrics.Fingerprint(r.req)
}

// Fingerprint canonicalizes a request and returns its cache key. Clients
// (and the load-test harness) use it to predict cache behaviour: requests
// sharing a fingerprint share one cache entry and one simulation.
func Fingerprint(req Request) (string, error) {
	res, e := canonicalize(req)
	if e != nil {
		return "", e
	}
	return res.fingerprint()
}

// Evaluate runs the resolved simulation and assembles the response. It is
// a pure Cycle-domain function of its argument — registered as a
// cycle-domain entry point with the detflow lint — which is the proof
// obligation behind the byte-identical-response guarantee: everything
// nondeterministic about serving (cache state, concurrency, wall time)
// lives outside this function.
func Evaluate(r resolved) *Response {
	runOne := core.RunTraining
	if r.req.Options.BackwardOnly {
		runOne = core.RunBackwardOnly
	}

	run := runOne(r.cfg, sim.Options{}, r.model, r.policy)
	resp := &Response{
		Schema: SchemaVersion,
		Model:  run.Model,
		Config: r.cfg.Name,
		Policy: r.policy.String(),

		TotalCycles: run.TotalCycles(),
		FwdCycles:   run.FwdCycles,
		BwdCycles:   run.BwdCycles,
		Seconds:     run.Seconds(r.cfg),

		BwdTrafficBytes: run.BwdTraffic.Total(),
		BwdRead:         trafficMap(run.BwdTraffic, false),
		BwdWrite:        trafficMap(run.BwdTraffic, true),
	}
	for _, l := range run.Bwd {
		resp.Layers = append(resp.Layers, LayerChoice{
			Name:   l.Name,
			Order:  l.Order.String(),
			Scheme: l.Scheme.String(),
			Parts:  l.Parts,
			Cycles: l.Cycles,
		})
		resp.Spills += l.Spills
	}

	var base core.ModelRun
	if r.req.Options.Baseline {
		base = runOne(r.cfg, sim.Options{}, r.model, core.PolBaseline)
		resp.BaseCycles = base.TotalCycles()
		resp.Reduction = core.Improvement(base, run)
	}
	if r.req.Options.Energy {
		model := energy.Default45nm()
		b := model.TrainingStep(run)
		resp.Energy = &EnergyResult{
			DRAMJoules:    b.DRAM,
			SPMJoules:     b.SPM,
			ComputeJoules: b.Compute,
			StaticJoules:  b.Static,
			TotalJoules:   b.Total(),
		}
		if r.req.Options.Baseline {
			resp.Energy.Savings = model.Savings(base, run)
		}
	}
	if r.req.Options.Report {
		resp.Report = traceReport(r)
	}
	return resp
}

// traceReport re-runs the model's layers sequentially on a private sink
// and renders the trace report. The layer-memoized entry points are
// bypassed on purpose: a layer-memo hit would suppress the engine spans
// of whatever executed first, making the report depend on cache state.
// The private sink is never installed process-wide, so the runner
// contributes no wall-clock task spans and the rendered text is a pure
// function of the request. The report reads only the folded metrics, so
// the sink is a summary sink: it keeps no events, and every plan the
// passes run is served by core's summary-trace memo once it has run —
// the memo appends the plan's folded tracks exactly as the engine would
// fold them, keyed by the plan, the hardware fingerprint and placement,
// so a repeated report costs lookups, not simulations.
func traceReport(r resolved) string {
	sink := trace.NewSummary()
	for _, lp := range core.PlanModel(r.cfg, r.model) {
		label := r.model.Abbr + "/" + lp.Layer.Name
		if !r.req.Options.BackwardOnly {
			core.RunForward(r.cfg, sim.Options{Trace: sink, TraceLabel: label + " fwd"}, lp.Params)
		}
		core.RunBackward(r.cfg, sim.Options{Trace: sink, TraceLabel: label + " bwd"},
			lp.Params, r.policy, lp.Layer.SkipDX)
	}
	return sink.Metrics().Report()
}

// trafficMap flattens one direction of a traffic breakdown into a
// class-name map, walking dram.Classes() (a fixed slice, not a Go map) so
// no map-iteration order can leak; encoding/json then sorts the keys.
func trafficMap(t dram.Traffic, write bool) map[string]int64 {
	out := make(map[string]int64, dram.NumClasses)
	for _, c := range dram.Classes() {
		v := t.Read[c]
		if write {
			v = t.Write[c]
		}
		if v != 0 {
			out[c.String()] = v
		}
	}
	return out
}
