GO ?= go

.PHONY: all build test race bench-ab bench-gate sweep docs-lint telemetry-smoke ci

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

# sweep runs the deterministic crash-site sweep over every registered
# structure under its defaults (sweep.Defaults) and records the coverage
# matrix (see docs/crash-model.md).
sweep:
	$(GO) run ./cmd/crashtest -sweep -structure all -report crash_coverage.json

# docs-lint enforces the godoc policy (every exported symbol documented)
# on the packages the harnesses build on; see cmd/docslint.
docs-lint:
	$(GO) vet ./...
	$(GO) run ./cmd/docslint

# telemetry-smoke runs a short instrumented figure sweep and validates the
# emitted snapshot against the repro-telemetry/1 schema (see
# internal/telemetry and cmd/telemetryvet).
telemetry-smoke:
	$(GO) run ./cmd/benchrunner -experiment fig3b -threads 1,2 -duration 100ms \
		-telemetry telemetry.json -progress 0
	$(GO) run ./cmd/telemetryvet telemetry.json

ci:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	$(GO) test -race ./...
	$(MAKE) docs-lint
	$(MAKE) bench-gate
	$(MAKE) telemetry-smoke
