GO ?= go

.PHONY: all build test race bench-ab bench-gate bench-pmem bench-workloads kvstore-smoke sweep docs-lint telemetry-smoke ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-ab runs paired A/B runs of the frozen end-to-end benchmark on one
# workload: both refs as git worktrees under .bench_build/ab/, ABBA order,
# every run in the foreground under timeout, worktrees removed on exit.
# It prints one line of end-to-end metrics per run (scripts/bench-ab.sh).
bench-ab:
	@if [ -z "$(A)" ] || [ -z "$(B)" ] || [ -z "$(W)" ] || [ -z "$(PAIRS)" ] || [ -z "$(SEED)" ]; then \
		echo "usage: make bench-ab A=<ref> B=<ref> W=<workload> PAIRS=<n> SEED=<s>" >&2; exit 2; fi
	bash scripts/bench-ab.sh "$(A)" "$(B)" "$(W)" "$(PAIRS)" "$(SEED)"

# bench-gate runs the checks whose verdicts depend on host timing (build
# tag benchgate), kept out of `go test ./...` so tier-1 stays
# deterministic: today the detached-telemetry overhead ratio (<2%).
bench-gate:
	$(GO) test -tags benchgate -count=1 -run TestDisabledTelemetryOverhead ./internal/telemetry

# bench-pmem measures the simulated-NVMM substrate itself and records the
# result; regressions here silently distort every structure benchmark, so
# CI keeps a trajectory of BENCH_pmem.json.
bench-pmem:
	$(GO) run ./cmd/benchrunner -substrate -threads 1,2,4,8,16 -out BENCH_pmem.json
	@cat BENCH_pmem.json

# sweep runs the deterministic crash-site sweep over every recoverable
# structure and records the coverage matrix (see docs/crash-model.md).
sweep:
	$(GO) run ./cmd/crashtest -sweep -structure all -depth 2 -seed 1 -report crash_coverage.json

# docs-lint enforces the godoc policy (every exported symbol documented)
# on the packages the harnesses build on; see cmd/docslint.
docs-lint:
	$(GO) vet ./...
	$(GO) run ./cmd/docslint

# bench-workloads runs the open/closed-loop workload scenario matrix (see
# internal/bench/workload.go) and schema-gates the result through
# telemetryvet. Deterministic given -seed: this exact invocation regenerates
# the checked-in BENCH_workloads.json byte for byte.
bench-workloads:
	$(GO) run ./cmd/benchrunner -workloads -seed 1 -out BENCH_workloads.json
	$(GO) run ./cmd/telemetryvet BENCH_workloads.json

# kvstore-smoke regenerates only the sharded-store workload rows (16/32/64
# shards behind one root slot each) at reduced op counts and schema-gates
# them through telemetryvet: every row must carry per-shard traffic and the
# recovery-cost block (see internal/bench/kvtenant.go and docs/kvstore.md).
kvstore-smoke:
	$(GO) run ./cmd/benchrunner -workloads -workload-filter kvstore- -seed 1 \
		-workload-ops 4000 -out kvstore_smoke.json
	$(GO) run ./cmd/telemetryvet kvstore_smoke.json
	@rm -f kvstore_smoke.json

# telemetry-smoke runs a short instrumented figure sweep and validates the
# emitted snapshot against the repro-telemetry/1 schema (see
# internal/telemetry and cmd/telemetryvet).
telemetry-smoke:
	$(GO) run ./cmd/benchrunner -experiment fig3b -threads 1,2 -duration 100ms \
		-telemetry telemetry.json -progress 0
	$(GO) run ./cmd/telemetryvet telemetry.json

ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) docs-lint
	$(MAKE) bench-gate
	$(MAKE) bench-pmem
	$(MAKE) bench-workloads
	$(MAKE) kvstore-smoke
	$(MAKE) telemetry-smoke
