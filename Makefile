# Convenience targets for the ALERT reproduction.

GO ?= go

.PHONY: all build test vet lint allowlist deadcode race cover bench bench-test bench-pairs figures campaign-smoke live-smoke analysis experiments fuzz clean

all: build vet lint test

build:
	$(GO) build ./...

# bench/ is its own module, so the root ./... never reaches it; vet it too
# so a constructor change it compiles against fails here.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# alertlint runs the nine-analyzer static-contract suite (see DESIGN.md,
# "The determinism contract" → "Static contracts"). Exits non-zero on
# findings.
lint:
	$(GO) run ./cmd/alertlint ./...

# Print every //lint:allow* escape-hatch annotation with its recorded
# reason — the audit trail for the lint contracts.
allowlist:
	$(GO) run ./cmd/alertlint -allowlist .

# Fail on any function that no cmd/*, examples/* or bench program reaches
# unless scripts/deadcode.allow lists it with a reason, and on any listed
# function that is reached or no longer declared. Builds into a temporary
# directory with inlining off; see scripts/deadcode.sh.
deadcode:
	sh scripts/deadcode.sh

test:
	$(GO) test ./...

# Race detection over the concurrency-bearing packages (the dynamic
# backstop for the sharedstate analyzer): the campaign engine's worker pool
# (TestSeedDeterminismParallel pins four workers), the sim fork-join and the
# packages it fans out over on large fields (medium position sweeps, node
# construction, mobility walkers; experiment's TestParallelSweepsIdentical
# forces a real fork), and the live UDP daemons (read pump, loop,
# coordinator).
race:
	$(GO) test -race ./internal/experiment ./internal/campaign ./internal/sim \
		./internal/medium ./internal/node ./internal/mobility
	$(GO) test -race -short ./internal/live

# Coverage floor over the packages the telemetry layer threads through,
# plus cmd/campaign, the only evaluation CLI, cmd/alertsim, the scenario
# CLI, and cmd/tlmgrep, the telemetry stream's reader. Each must stay at or
# above COVER_FLOOR percent statement coverage.
COVER_PKGS = ./internal/telemetry ./internal/sim ./internal/medium \
	./internal/gpsr ./internal/core ./internal/metrics ./internal/node \
	./internal/experiment ./internal/ao2p ./internal/alarm ./internal/zap \
	./internal/campaign ./internal/live ./cmd/campaign ./cmd/alertsim \
	./cmd/tlmgrep
COVER_FLOOR = 75.0

cover:
	@$(GO) test -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) ' \
		{ print } \
		/coverage:/ { pct = $$5; sub(/%/, "", pct); \
			if (pct + 0 < floor) bad = bad ORS "  " $$2 " at " $$5 " (floor " floor "%)" } \
		END { if (bad != "") { print "FAIL: coverage below floor:" bad; exit 1 } }'

# Full benchmark pass: one benchmark per paper table/figure + ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark's own tests (bench/ is a separate module, so
# `go test ./...` at the root does not reach it): quantile, profile-decoder,
# span and BENCHMARK.json-consistency unit tests plus a ~9 s smoke of all
# four workloads, each held to its golden-digest correctness gates.
bench-test:
	cd bench && $(GO) test ./...

# Alternating before/after pairs of the repository benchmark, the checkout
# against PARENT (a git revision, checked out as a shared clone in
# .bench_build/parent/ so its build is stamped with its own revision): pair
# i runs seed SEED+i on both sides, alternating which runs first, and the
# summary prints each end-to-end metric's medians, quartiles, ratio and
# wins. Results stay under .bench_build/pairs/. See scripts/bench-pairs.sh.
WORKLOAD ?= sim-alert
PAIRS ?= 10
SEED ?= 1

bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [WORKLOAD=w] [PAIRS=n] [SEED=s]" >&2; exit 2; }
	sh scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SEED)

# Regenerate every evaluation output (closed forms, figures, tables,
# attacks) at paper fidelity (30 seeds) as one parallel, resumable campaign:
# results stream to out/figures-campaign, so a killed run continues where it
# stopped and re-runs are free. Outputs land in out/figures/.
figures:
	$(GO) run ./cmd/campaign run -dir out/figures-campaign -cache-dir out/cache \
		-seeds 30 -quiet -o out/figures all

# Tiny campaign for CI: a 2-seed grid through the full engine (store,
# cache, resume machinery); the result store is uploaded as an artifact.
campaign-smoke:
	$(GO) run ./cmd/campaign run -dir out/campaign-smoke -cache-dir out/campaign-smoke-cache \
		-seeds 2 -quiet -o out/campaign-smoke-figures fig11 fig12 energy
	$(GO) run ./cmd/campaign status -dir out/campaign-smoke

# Live-mode smoke: the frozen 5-node GPSR topology of TestFiveNodeExactPath
# run in the simulator and on five in-process UDP daemons, band-checked
# live against sim (sent counts must match exactly); exits nonzero outside
# the bands. cmd/alertsim's TestRunBothInProcess runs the same command.
live-smoke:
	$(GO) run ./cmd/alertsim -mode both -protocol gpsr -seed 15 -nodes 5 \
		-field 600x600 -mobility static -no-updates -duration 10 -drain 2 \
		-pairs 2 -interval 2 -timescale 0.05 -out out/live-smoke

# The Section 4 closed-form curves.
analysis:
	$(GO) run ./cmd/campaign run -quiet fig7a fig7b fig9a fig9b overhead

# The artifacts the reproduction hand-off asks for.
experiments:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Every fuzz target, 30 s each; CI runs this list. -run NONE skips the
# packages' unit tests, which `make test` runs.
fuzz:
	$(GO) test ./internal/mobility -fuzz FuzzParseNS2 -fuzztime 30s -run NONE
	$(GO) test ./internal/sim -fuzz FuzzSchedule -fuzztime 30s -run NONE
	$(GO) test ./internal/rng -fuzz FuzzSource -fuzztime 30s -run NONE
	$(GO) test ./internal/geo -fuzz FuzzNearest -fuzztime 30s -run NONE
	$(GO) test ./internal/medium -fuzz FuzzNodesWithin -fuzztime 30s -run NONE
	$(GO) test ./internal/medium -fuzz FuzzNeighbors -fuzztime 30s -run NONE
	$(GO) test ./internal/core -fuzz FuzzUnmarshal -fuzztime 30s -run NONE
	$(GO) test ./internal/core -fuzz FuzzOpenData -fuzztime 30s -run NONE
	$(GO) test ./internal/core -fuzz FuzzZoneReach -fuzztime 30s -run NONE
	$(GO) test ./internal/live -fuzz FuzzWireCodec -fuzztime 30s -run NONE
	$(GO) test ./internal/campaign -fuzz FuzzStoreReopen -fuzztime 30s -run NONE

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf out
