# Tier-1 gate for this repo. `make check` is what CI and reviewers run;
# it must pass on every commit.

GO ?= go

.PHONY: check build test vet perfbench-vet race api-surface api-surface-update bench-gate bench-budget bench-sweep examples serve-smoke cluster-smoke job-smoke obs-smoke chaos trace fuzz-smoke profile

check: vet perfbench-vet build race api-surface bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench is its own module (so ./... above never sees it) but imports
# the facade and internal packages; vetting it compiles the benchmark
# against the working tree, so an internal API change that would break a
# benchmark workload fails here.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# Golden `go doc` diff over every non-internal package: fails when the
# public API surface drifts from scripts/api_surface.golden. Re-record
# with `make api-surface-update` after an intentional change.
api-surface:
	GO=$(GO) sh scripts/api_surface.sh

api-surface-update:
	GO=$(GO) sh scripts/api_surface.sh -update

# The layer probes behind the allocation-budget gate: the go test
# benchmarks on the paths the BENCHMARK.json workloads cross (config
# fingerprint and binary codec, sweep engine and memo cache, result
# store, shard wire, the SmallCNN training kernels and one noise-train
# trial, the disabled tracer, one analytical Simulate per dataflow).
# They run at -cpu 1 because the parallel kernels' allocation counts
# vary with goroutine scheduling at more procs.
BENCH_PROBES = $(GO) test -run '^$$' \
	-bench '^Benchmark(Config(Fingerprint|Binary)|PaperSweep(Serial|Cached)|PlanCells|Store(Put|Get)|ShardRoundTrip|Conv2D|ConvBackward(Input|Weights)|NoiseTrial|StartSpanDisabled|Simulate)$$' \
	-benchmem -benchtime 20x -cpu 1 \
	./internal/arch/ ./internal/sweep/ ./internal/store/ ./internal/serve/ ./internal/tensor/ ./internal/train/ ./internal/obs/ ./internal/conformance/

# Allocation-budget gate: runs the probes and fails when any probe's
# allocs/op or B/op leaves its margins in scripts/bench_budget.txt, in
# either direction, or when the Go release differs from the recorded one
# (see scripts/benchgate).
bench-gate:
	$(BENCH_PROBES) | $(GO) run ./scripts/benchgate scripts/bench_budget.txt

# Re-record scripts/bench_budget.txt after an intended allocation change.
bench-budget:
	{ $(GO) env GOVERSION; $(BENCH_PROBES) | grep '^Benchmark'; } > scripts/bench_budget.txt

# Sweep-engine scaling benchmark (serial vs 2/4/8 workers + warm cache).
bench-sweep:
	$(GO) test -bench PaperSweep -benchtime 10x -run xxx ./internal/sweep/

# Chaos suite: every deterministic fault-injection, retry, drain, and
# stuck-device test under the race detector. Seeds are fixed in the
# tests, so a failure here reproduces exactly by rerunning the target.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Retry|Stuck|Readiness|MaxBody|Drain|Backoff|Transient|RetryAfter|Exhausted' \
		./internal/fault/ ./internal/sweep/ ./internal/serve/ \
		./internal/client/ ./internal/rram/ ./internal/train/ .

# Observability suite under the race detector: the obs tracer itself,
# the traced sim/sweep/serve paths (deterministic step clocks pin every
# timestamp), kernel-stats counters, and the admission-gauge invariants.
trace:
	$(GO) test -race -run 'Trace|Traced|KernelStats|Stats|QueuedGauge|Prometheus|LatencyHistogram|Pprof' \
		./internal/obs/ ./internal/sim/ ./internal/sweep/ \
		./internal/serve/ ./internal/tensor/

# Short native-fuzzing pass: every Fuzz* target in the listed packages
# runs for 5 s on two workers (`go test -fuzz` takes one target per
# run). Seed corpora live in each package's testdata/fuzz; a crash
# writes its input there, to be fixed and kept as a regression seed.
fuzz-smoke:
	@for pkg in ./internal/fixed/ ./internal/wal/ ./internal/store/ ./internal/job/ ./internal/serve/ ./internal/tensor/ ./internal/obs/ ./internal/arch/; do \
		for fz in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$fz"; \
			$(GO) test -run '^$$' -fuzz "^$$fz\$$" -fuzztime 5s -parallel 2 $$pkg || exit 1; \
		done; \
	done

# CPU profile of one noise-train trial (the training kernels' hot path);
# inspect with `go tool pprof train.test cpu.pprof`.
profile:
	$(GO) test -run '^$$' -bench NoiseTrial -cpuprofile cpu.pprof ./internal/train/

# Run every example program (the library surface, end to end); any
# non-zero exit fails. Building them alone misses a runtime break.
examples:
	@for d in examples/*/; do \
		echo "examples: $$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# End-to-end smoke of the HTTP service: boot inca-serve, probe /healthz,
# evaluate one simulate cell twice (responses must be byte-identical),
# then SIGTERM and require a clean drained exit.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# End-to-end smoke of the sharded cluster: boot 3 shards + coordinator +
# a single-node reference, sweep through the coordinator (CSV must be
# byte-identical to the reference), SIGKILL one shard and sweep again
# (still byte-identical, readiness degraded but 200), then clean SIGTERM
# exits for every surviving node.
cluster-smoke:
	GO=$(GO) sh scripts/cluster_smoke.sh

# End-to-end crash-resume smoke of the durable job subsystem: run a job
# clean for a reference body, rerun it on a journaled server and
# SIGKILL mid-job, restart over the same directories, and require the
# resumed result byte-identical with the resume visible in /metrics.
job-smoke:
	GO=$(GO) sh scripts/job_smoke.sh

# End-to-end smoke of the observability plane: boot a 3-shard cluster
# with tracing, SLO objectives, and durable jobs; run a cost-attributed
# sharded sweep and a SIGKILL-resumed job; require the federated trace
# on the coordinator to carry shard-side spans, the usage ledger to
# reconcile with the per-request cost blocks, and burn-rate families in
# /metrics.
obs-smoke:
	GO=$(GO) sh scripts/obs_smoke.sh
