# Convenience targets for the ALERT reproduction.

GO ?= go

.PHONY: all build test vet lint allowlist race cover bench bench-smoke bench-test figures campaign-smoke campaign-distributed-smoke live-smoke analysis experiments fuzz clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# alertlint runs the nine-analyzer static-contract suite (see DESIGN.md,
# "The determinism contract" → "Static contracts"). Exits non-zero on
# findings.
lint:
	$(GO) run ./cmd/alertlint ./...

# Print every //lint:allow* escape-hatch annotation with its recorded
# reason — the audit trail for the lint contracts.
allowlist:
	$(GO) run ./cmd/alertlint -allowlist .

test:
	$(GO) test ./...

# Race detection over the concurrency-bearing packages (the dynamic
# backstop for the sharedstate analyzer): the harness worker pools, the
# distributed campaign server (lease queue, HTTP handlers, worker executor
# pools), the sim fork-join and the packages it fans out over on large
# fields (medium position sweeps, node construction, mobility walkers;
# experiment's TestParallelSweepsIdentical forces a real fork), and the
# live UDP daemons (pump goroutines, control plane, coordinator).
race:
	$(GO) test -race ./internal/experiment ./internal/campaign \
		./internal/campaign/server ./internal/sim \
		./internal/medium ./internal/node ./internal/mobility
	$(GO) test -race -short ./internal/live

# Coverage floor over the packages the telemetry layer threads through,
# plus cmd/campaign, the only evaluation CLI. Each must stay at or above
# COVER_FLOOR percent statement coverage.
COVER_PKGS = ./internal/telemetry ./internal/sim ./internal/medium \
	./internal/gpsr ./internal/core ./internal/metrics ./internal/node \
	./internal/experiment ./internal/ao2p ./internal/alarm ./internal/zap \
	./internal/campaign ./internal/campaign/server ./internal/live \
	./cmd/campaign
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

# Single-iteration smoke over the root figure benchmarks, leaving a
# machine-readable artifact (cmd/benchjson parses the text output) and
# gating allocs/op against the committed baseline: allocation counts are
# deterministic at -benchtime=1x for serial benchmarks, but the
# multi-goroutine ones (parallel figure sweeps, campaign engine) jitter
# by a few allocs/op of scheduler noise between identical-code runs —
# -allocslack 16 absorbs that. Across binaries (committed baseline vs new
# code) GC pacing shifts too, and each extra GC cycle re-fills the worker
# pools, so drift scales with the benchmark's size (~0.03% of allocs/op);
# -allocslackpct 0.25 absorbs that proportionally. Both bounds still flag
# any real per-event or per-frame leak (those cost percents — thousands
# of allocs/op — here). ns/op at one iteration is jitter; the 400%
# tolerance only catches order-of-magnitude blowups.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run NONE . | $(GO) run ./cmd/benchjson > BENCH_pr13.json
	@echo "wrote BENCH_pr13.json"
	$(GO) run ./cmd/benchjson -compare -tolerance 400 -allocslack 16 -allocslackpct 0.25 BENCH_pr12.json BENCH_pr13.json

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

# Distributed campaign smoke: the same 2-seed grid, once single-process and
# once through one `serve` process plus two `work` processes over HTTP, then
# a byte-for-byte comparison of the two result stores — the CI gate on the
# distributed engine's byte-identity contract (DESIGN.md, "Distributed
# campaign").
campaign-distributed-smoke:
	rm -rf out/dist-smoke
	mkdir -p out/dist-smoke
	$(GO) build -o out/dist-smoke/campaign ./cmd/campaign
	out/dist-smoke/campaign run -dir out/dist-smoke/ref -seeds 2 -quiet \
		-o out/dist-smoke/ref-figures fig11 fig12 energy
	out/dist-smoke/campaign serve -dir out/dist-smoke/dist -seeds 2 -quiet \
		-addr 127.0.0.1:0 -addr-file out/dist-smoke/addr \
		-o out/dist-smoke/dist-figures fig11 fig12 energy & SERVE=$$!; \
	i=0; while [ ! -f out/dist-smoke/addr ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	if [ ! -f out/dist-smoke/addr ]; then echo "serve never bound" >&2; kill $$SERVE; exit 1; fi; \
	ADDR=$$(cat out/dist-smoke/addr); \
	out/dist-smoke/campaign work -server http://$$ADDR -name smoke-1 -quiet & W1=$$!; \
	out/dist-smoke/campaign work -server http://$$ADDR -name smoke-2 -quiet & W2=$$!; \
	RC=0; wait $$SERVE || RC=1; wait $$W1 || RC=1; wait $$W2 || RC=1; exit $$RC
	cmp out/dist-smoke/ref/results.jsonl out/dist-smoke/dist/results.jsonl
	@echo "distributed campaign is byte-identical to the single-process run"

# Live-mode smoke across real process boundaries: five alertd daemons on
# loopback (the frozen 5-node GPSR topology of TestFiveNodeExactPath), then
# alertload in external mode dials their control planes, replays the sim's
# flow schedule, and band-checks live against sim — sent counts must match
# exactly. -quit tears the fleet down through /v1/quit.
live-smoke:
	rm -rf out/live-smoke
	mkdir -p out/live-smoke
	$(GO) build -o out/live-smoke/alertd ./cmd/alertd
	$(GO) build -o out/live-smoke/alertload ./cmd/alertload
	for i in 0 1 2 3 4; do \
		out/live-smoke/alertd -id $$i -n 5 -protocol gpsr -seed 15 -field 600x600 \
			-timescale 0.05 -addr-file out/live-smoke/node$$i.addr & \
	done; \
	i=0; while [ $$(ls out/live-smoke/*.addr 2>/dev/null | wc -l) -lt 5 ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	if [ $$(ls out/live-smoke/*.addr 2>/dev/null | wc -l) -lt 5 ]; then echo "alertd fleet never bound" >&2; kill $$(jobs -p) 2>/dev/null; exit 1; fi; \
	cat out/live-smoke/node*.addr > out/live-smoke/fleet.txt; \
	RC=0; out/live-smoke/alertload -mode both -nodes out/live-smoke/fleet.txt \
		-protocol gpsr -seed 15 -n 5 -field 600x600 -mobility static \
		-duration 10 -drain 2 -pairs 2 -interval 2 -timescale 0.05 \
		-out out/live-smoke/logs -quit || RC=1; \
	wait; exit $$RC
	@echo "live fleet matches sim inside the bands"

# The Section 4 closed-form curves.
analysis:
	$(GO) run ./cmd/campaign run -quiet fig7a fig7b fig9a fig9b overhead

# The artifacts the reproduction hand-off asks for.
experiments:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

fuzz:
	$(GO) test ./internal/mobility -fuzz FuzzParseNS2 -fuzztime 30s
	$(GO) test ./internal/sim -fuzz FuzzSchedule -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzUnmarshal -fuzztime 30s
	$(GO) test ./internal/live -fuzz FuzzWireCodec -fuzztime 30s

# BENCH_pr3/pr4/pr6/pr8/pr9/pr10/pr12.json are committed comparison
# baselines, not build outputs — clean only removes the transient
# artifacts. (bench-smoke regenerates BENCH_pr13.json in place; the
# committed copy is the blessed baseline for the next generation.)
clean:
	rm -f test_output.txt bench_output.txt BENCH_pr5.json
	rm -rf out
