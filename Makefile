# Tier-1 gate for this repo. `make check` is what CI and reviewers run;
# it must pass on every commit.

GO ?= go

.PHONY: check build test vet race api-surface api-surface-update bench bench-pr bench-gate bench-sweep serve-smoke cluster-smoke job-smoke obs-smoke chaos trace fuzz-smoke profile

check: vet build race api-surface bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Golden `go doc` diff over every non-internal package: fails when the
# public API surface drifts from scripts/api_surface.golden. Re-record
# with `make api-surface-update` after an intentional change.
api-surface:
	GO=$(GO) sh scripts/api_surface.sh

api-surface-update:
	GO=$(GO) sh scripts/api_surface.sh -update

# Tensor-kernel serial-vs-parallel baseline, recorded in the repo root.
bench:
	$(GO) run ./cmd/inca-bench -o BENCH_PR2.json

# Full baseline for PR n, recorded in the repo root: the four tensor
# kernels plus every A/B probe (store warm start, request coalescing,
# job resume, observability overhead). `make bench-pr PR=14` writes
# BENCH_PR14.json with "pr": 14.
bench-pr:
	@test -n "$(PR)" || { echo "usage: make bench-pr PR=n" >&2; exit 2; }
	$(GO) run ./cmd/inca-bench -o BENCH_PR$(PR).json -pr $(PR)

# Deterministic perf-regression gate: compares the two newest committed
# BENCH_PR*.json baselines and fails on a >10% slowdown in any kernel
# present in both. Override the tolerance with BENCH_GATE_TOLERANCE.
bench-gate:
	GO=$(GO) sh scripts/bench_gate.sh

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
	$(GO) test -race -run 'Trace|Traced|KernelStats|Stats|QueuedGauge|Prometheus|LatencyBuckets|Pprof' \
		./internal/obs/ ./internal/sim/ ./internal/sweep/ \
		./internal/serve/ ./internal/tensor/

# Short native-fuzzing pass: every Fuzz* target in the listed packages
# runs for 5 s on two workers (`go test -fuzz` takes one target per
# run). Seed corpora live in each package's testdata/fuzz; a crash
# writes its input there, to be fixed and kept as a regression seed.
fuzz-smoke:
	@for pkg in ./internal/fixed/ ./internal/wal/ ./internal/store/ ./internal/serve/ ./internal/tensor/; do \
		for fz in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$fz"; \
			$(GO) test -run '^$$' -fuzz "^$$fz\$$" -fuzztime 5s -parallel 2 $$pkg || exit 1; \
		done; \
	done

# CPU profile of the kernel benchmark (the numeric hot path); inspect
# with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/inca-bench -cpuprofile cpu.pprof

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
