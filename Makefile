# Developer entry points. `make ci` is the full local gate; the repo's
# tier-1 check remains `go build ./... && go test ./...` (see ROADMAP.md).

GO ?= go

.PHONY: build test race bench bench-json bench-module vet fmt-check lint lint-sarif lint-check ci golden trace-check fuzz-short cover sweep-check replay-check perf-check manifest-check serve-check loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file must be gofmt-clean; lists the offenders and fails if any.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

# The -race run includes the 16-goroutine cache/tuner hammer in
# internal/core and the cold-vs-warm parallelism golden in
# internal/experiments.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The benchmark harness is its own module (benchmark/go.mod), outside the
# root module's ./..., and calls into the simulator's internal packages:
# vet and test it here so an API change that breaks it fails the gate
# rather than the benchmark pipeline.
bench-module:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark -count=1 .

# Machine-readable perf trajectory (DESIGN.md §3g): BENCH_compiled.json
# records ns/op, allocs/op and simulated-DRAM MB/s for the compiled
# engine's cold (pooled lowering) and steady-state (pre-bound program)
# runs; BENCH_sweep.json records the canonical pruned design-space sweep's
# throughput, pruned fraction and resolve/replay split (§3h, §3l); and
# BENCH_serve.json the fixed-seed serve load test (§3k). CI runs
# one iteration per benchmark — enough to prove the harness and refresh the
# artifacts; quote numbers from a longer run (`make bench-json BENCHTIME=2s`).
BENCHTIME ?= 1x
bench-json:
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -o BENCH_compiled.json -sweep-o BENCH_sweep.json -serve-o BENCH_serve.json

# Observability gate: the disabled trace path must not allocate or change
# results, the Chrome-trace export must match the goldens byte for byte
# (regenerate with `go test ./internal/trace/ -run Golden -update`), and
# reports served by the summary-trace memo must equal a full sink's,
# whichever runs warmed the memo.
trace-check:
	$(GO) test ./internal/trace/ -run 'TestDisabledPathZeroAllocs|TestTracingDoesNotChangeResults|TestGoldenTraceJSON' -count=1
	$(GO) test ./internal/core/ -run 'TestSummaryMemoReportsMatchFull|TestSummaryMemoKeysSeparateRuns' -count=1

# Project-specific static analysis (see DESIGN.md §3e, §3j): determinism
# and zero-overhead invariants checked at compile time by cmd/igolint,
# including the interprocedural detflow proof that no cycle-domain entry
# point reaches wall-clock or ambient randomness. Part of `make ci` but
# deliberately not of tier-1 (`go build && go test`) so a new analyzer can
# land stricter than the tree without breaking the build; the analyzers'
# own unit tests still run under plain `go test ./...`. The run is held to
# a wall-time budget (exit 3 past it) and records its timing in the run
# manifest's wall domain.
LINT_BUDGET ?= 60s
lint:
	$(GO) run ./cmd/igolint -budget $(LINT_BUDGET) -manifest results/lint_manifest.json ./...

# Findings as a SARIF 2.1.0 artifact for code-scanning UIs.
lint-sarif:
	$(GO) run ./cmd/igolint -sarif results/lint.sarif ./...

# Lint-gate-has-teeth check (DESIGN.md §3j): igolint lints internal/lint
# itself, a pristine tree copy lints clean, and an injected two-hop
# time.Now leak must fail with the full interprocedural call chain.
lint-check:
	sh scripts/lint_check.sh

# Native fuzzing against the property-suite generators (DESIGN.md §3f).
# The seed corpora live in internal/proptest/testdata/fuzz/ and
# internal/sim/testdata/fuzz/; 30 seconds per target is enough to replay
# them and mutate a few hundred thousand inputs. Go allows one -fuzz
# pattern per invocation, hence one run per target.
FUZZTIME ?= 30s
fuzz-short:
	$(GO) test ./internal/proptest/ -run '^$$' -fuzz '^FuzzBackwardSchedules$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proptest/ -run '^$$' -fuzz '^FuzzTilingCounts$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz '^FuzzResidency$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proptest/ -run '^$$' -fuzz '^FuzzCompiledEngine$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proptest/ -run '^$$' -fuzz '^FuzzResolvedReplay$$' -fuzztime $(FUZZTIME)

# Design-space exploration gate (DESIGN.md §3h): internal/dse's unit and
# property tests, then an end-to-end CLI check that a pruned sweep's
# simulated rows match an unpruned sweep's byte for byte and that a sweep
# killed after one shard resumes to a byte-identical CSV.
sweep-check:
	$(GO) test ./internal/dse/ ./internal/analytic/ -count=1
	sh scripts/sweep_check.sh

# Two-phase executor gate (DESIGN.md §3l): the pruned, residency-cached
# canonical sweep must be byte-identical across -j 1/-j 8 and to an
# unpruned engine-only sweep (-residency-cache 0), and an injected
# one-cycle replay skew must fail the comparison naming the CSV column.
replay-check:
	sh scripts/replay_check.sh

# Perf-regression gate (DESIGN.md §3i): regenerate the BENCH_*.json
# artifacts into a temp dir and igostat-diff them against the committed
# baselines. Wall-clock leaves are tolerance-open (1x benchtime is noise);
# allocs/op and sweep counts gate at zero. Runs before bench-json in `ci`
# so the committed baselines are still pristine when compared. Move a
# number deliberately with `make bench-json` in the same change.
perf-check:
	sh scripts/perf_check.sh

# Simulation-service gate (DESIGN.md §3k): the serve + loadtest suites
# under -race (body determinism across -j1/-j8 replay, error paths, cache
# semantics), then a fresh fixed-seed load test igostat-diffed against
# BENCH_serve.json — exact counts and the response-body digest at zero
# tolerance, latency/throughput leaves wall-open — plus an injected p99
# regression that must fail the gate by name.
serve-check:
	sh scripts/serve_check.sh

# Manifest determinism gate (DESIGN.md §3i): igosim -manifest must write
# byte-identical files at -j 1 and -j 8, igostat must self-diff clean, and
# a one-cycle corruption must be caught by name.
manifest-check:
	$(GO) test ./internal/metrics/ -run 'TestManifest' -count=1
	sh scripts/manifest_check.sh

# Coverage profile across all packages; prints the total percentage that
# README.md records under "Testing".
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

ci: fmt-check vet build race bench bench-module perf-check serve-check bench-json trace-check lint lint-check manifest-check sweep-check replay-check cover fuzz-short

# Full-suite determinism check: regenerates every figure twice (cold at
# -j 8, warm at -j 1) and demands byte-identical reports. Takes minutes.
golden:
	IGOSIM_GOLDEN_ALL=1 $(GO) test -run TestAllByteIdenticalAcrossParallelism -timeout 30m -v ./internal/experiments/

# Non-test Go line counts of the simulator's core packages and of the
# oracle-side packages that drive them, plus their total: the size figure
# simplicity changes report, net of callers moved between packages.
loc:
	@total=0; for d in schedule core sim trace proptest validate refmodel; do \
		n=$$(cat $$(ls internal/$$d/*.go | grep -v '_test\.go$$') | wc -l); \
		printf '%-9s %6d\n' "$$d" "$$n"; total=$$((total + n)); \
	done; printf '%-9s %6d\n' total "$$total"
