# Tier-1+ gate for the PRID reproduction. `make check` is what a PR must
# pass: formatting (gofmt -s), vet, the pridlint invariant suite, build,
# the full test suite (shuffled), the benchmark module's vet and tests,
# and the five end-to-end smokes (serving correctness, chaos resilience,
# load/SLO, multi-node gateway, crash durability).
# `make race` additionally runs the race detector over the packages with
# concurrency (and everything else), `make chaos` hammers the server
# with an aggressive fault schedule, `make soak` runs the minutes-long
# gateway endurance profile (deliberately not part of check), and
# `make bench` regenerates the throughput numbers the perf PRs are
# judged against.

GO ?= go

.PHONY: build test race vet fmt lint lint-report check bench bench-compile bench-module bench-snapshot serve-smoke chaos-smoke chaos load-smoke gateway-smoke crash-smoke soak slo-snapshot

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so accidental inter-test coupling
# (shared obs counters, leftover registry state) fails loudly instead of
# silently passing in lexical order.
test:
	$(GO) test -shuffle=on ./...

# Covers the concurrent packages (internal/obs, internal/hdc, the
# internal/serve micro-batching server + reload-race test, the federated
# round, internal/gateway — membership churn under concurrent traffic,
# prober vs. router vs. per-backend atomics — and the dedicated
# concurrency tests in internal/attack — shared Reconstructor across
# goroutines — and internal/vecmath — parallel kernels under contention)
# along with everything else. The experiments package needs more than
# the default 10m under the race detector's slowdown, hence the explicit
# timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Full stock analyzer set; go vet enables all of them by default when no
# -<analyzer> flags are passed, so this stays the complete suite as the
# toolchain grows.
vet:
	$(GO) vet ./...

# -s also demands simplified forms (composite-literal elision, range
# cleanups), not just canonical formatting.
fmt:
	@out="$$(gofmt -s -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; \
	fi

# Project invariant suite (internal/lint): the per-function syntactic
# analyzers (determinism, float equality, map-order, goroutine fan-out,
# library logging, dropped errors, atomic writes) plus the
# interprocedural dataflow analyzers (leaksurface taint, poolescape,
# ctxflow). Must exit clean; suppressions require a written
# //pridlint:allow reason.
lint:
	$(GO) run ./cmd/pridlint -timing ./...

# Machine-readable lint reports for CI artifact upload: findings as
# JSON next to a SARIF 2.1.0 document for code-scanning annotation.
# Produces the files even when findings exist (pridlint exits 1).
lint-report:
	$(GO) run ./cmd/pridlint -json ./... > pridlint.json || true
	$(GO) run ./cmd/pridlint -sarif ./... > pridlint.sarif || true

check: fmt vet lint build test bench-compile bench-module serve-smoke chaos-smoke load-smoke gateway-smoke crash-smoke

# Benchmark-compile gate: every benchmark must build and survive one
# iteration, so benches cannot rot uncompiled (or silently broken)
# between perf PRs. -benchtime=1x keeps it a compile+smoke, not a
# measurement.
bench-compile:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench/ is its own Go module, so the root build and test never compile
# it; vet and test it here so a change to a package it imports (engine,
# obs, store, hdc, the root prid package) cannot break the benchmark
# unnoticed.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# End-to-end gate for the serving subsystem: builds the binary, trains
# and saves two quick models, starts `prid serve` on a random port,
# drives predict / similarities / reconstruct / audit-leakage over real
# HTTP against in-process expectations, then requires a clean SIGINT
# drain. A second phase restarts in `--mode binary` and holds the
# Hamming fast path (plus a `prid gateway` in front) to the same bar,
# including the 400 on reconstruct. Fails non-zero on any mismatch.
serve-smoke:
	$(GO) run ./cmd/serve-smoke

# Resilience gate: drives the server through a deterministic fault
# schedule (errors, latency spikes, dropped/hung connections, truncated
# and corrupted payloads, handler panics) with the retrying client and a
# mid-run hot reload, requiring bit-identical predictions, recovered
# panics, a clean drain, and zero goroutine leaks.
chaos-smoke:
	$(GO) run ./cmd/chaos-smoke

# Latency gate: the deterministic open-loop load generator drives the
# spike-shaped plan three times — clean, under the chaos fault schedule,
# and through a three-backend gateway fleet with chaos everywhere — and
# asserts SLOs on each (p99 bound, zero outright failures, shed-rate
# bound) plus the per-backend /gatewayz breakdown on the gateway pass.
# Fixed seed: identical request counts and verdicts on every run. The
# report lands under a temp dir by default; set LOAD_SMOKE_OUT to keep
# it (CI does, to archive it as a build artifact).
LOAD_SMOKE_OUT ?=
load-smoke:
	$(GO) run ./cmd/load-smoke -out "$(LOAD_SMOKE_OUT)"

# Multi-node gate: three chaotic backends behind the consistent-hash
# gateway, with a backend killed and revived mid-traffic. Requires every
# prediction bit-identical to the in-process model, zero dropped
# requests across the churn, /gatewayz evidence of the eject/rejoin
# transitions, a bit-identical quorum majority, and a leak-free drain.
gateway-smoke:
	$(GO) run ./cmd/gateway-smoke

# Durability gate: SIGKILLs a snapshot writer mid-write, bit-flips and
# truncates the newest generations, then requires two real `prid serve
# --store` processes behind the gateway to recover to the last intact
# generation — bit-identical predictions, zero dropped requests through
# a backend kill -9 and restart, corrupt generations reported on
# /debug/vars, and forward-only motion on fleet reload.
crash-smoke:
	$(GO) run ./cmd/crash-smoke

# Endurance profile (NOT part of check; minutes-long by design): the
# gateway fleet under continuous bit-identical traffic with a rotating
# kill/revive churn for SOAK_DURATION, asserting zero goroutine and FD
# growth between steady-state samples at the start and end of the run.
SOAK_DURATION ?= 2m
soak:
	$(GO) run ./cmd/soak -duration $(SOAK_DURATION)

# Refresh the committed SLO trajectory snapshot (SLO_1.json) from a
# load-smoke pass — the latency analogue of bench-snapshot.
slo-snapshot:
	$(GO) run ./cmd/load-smoke -out SLO_1.json

# The same gate under a much nastier schedule and more traffic — for
# soaking changes to the serving or client retry paths.
chaos:
	$(GO) run ./cmd/chaos-smoke \
		-spec "error=0.25,latency=0.5:1ms-25ms,drop=0.08,hang=0.03,truncate=0.08,corrupt=0.08,panic=0.05,audit.panic=1" \
		-requests 300

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot (same artifact as
# `prid experiment quick --bench-out`). Updates only the "current" label
# in BENCH_1.json; the committed "baseline" label (the pre-optimization
# run of PR 4) is preserved for comparison.
bench-snapshot:
	$(GO) run ./cmd/prid experiment quick --bench-out BENCH_1.json --bench-label current
