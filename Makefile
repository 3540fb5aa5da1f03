# Developer entry points. CI runs scripts/ci.sh, which chains the same
# targets; keep the two in sync.

GO ?= go

.PHONY: build test race bench-quick bench-micro vet lint trace chaos matrix matrix-update scenarios loc ci

# The second line cross-compiles the one package with an assembly body
# (internal/dynim/fold_amd64.s) for a GOARCH that runs the Go loop instead,
# so that body cannot rot; scripts/ci.sh cross-builds the whole module and
# also holds fold.go's arm64 listing free of fused multiply-adds.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./internal/dynim

test:
	$(GO) test ./...

# The selector engine's determinism contract is only believable under the
# race detector (its rank refresh fans out over parallel.For workers), and
# the network store, the metrics endpoint and the feedback worker pool
# drive real goroutine interleavings in their tests. The coordination
# layers run on one goroutine (DESIGN.md §6), and -race also catches a test
# that shares one of them across goroutines — so the whole module runs
# under -race, not a hand-picked subset.
race:
	$(GO) test -race ./...

# Hot-path micro-benchmarks for the three engines the profiler flagged:
# the virtual clock's event loop, the scheduler's resource matcher, and
# the dynamic-importance samplers (farthest-point and binned) under the
# add/select/evict traffic the benchmark's ledger records. For finding
# where time goes inside one engine; performance claims need
# `$(GO) run ./bench`.
bench-micro:
	$(GO) test -run '^$$' -bench 'BenchmarkVirtual|BenchmarkMatcher|BenchmarkFPS|BenchmarkBinnedSelect' \
		-benchmem ./internal/vclock/ ./internal/sched/ ./internal/dynim/

# The repository's benchmark (bench/README.md, BENCHMARK.json): -quick is
# the CI smoke — one short rep per workload, non-zero exit on a failed
# output check. Performance claims need the full `$(GO) run ./bench`.
bench-quick:
	$(GO) run ./bench -quick

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the project's own analyzer suite
# (determinism, lockdiscipline, errdiscipline, doccomment,
# goroutinelifecycle, lockorder), stale-suppression audit included. See
# docs/LINT.md. Non-zero exit on any finding.
lint: vet
	$(GO) run ./cmd/mummi-lint ./...

# Observability demo: replay a small campaign with tracing, metrics, and a
# heartbeat, validate the artifacts, and leave trace.json ready to open in
# Perfetto (https://ui.perfetto.dev) or chrome://tracing. See
# docs/OBSERVABILITY.md.
trace:
	$(GO) run ./cmd/mummi-sim campaign -scale 0.05 -heartbeat 4h \
		-trace trace.json -metrics metrics.json
	$(GO) run ./scripts/tracecheck trace.json metrics.json

# Chaos demo: replay a small campaign with every fault class at aggressive
# rates and print the fault/recovery ledger. Same seed => byte-identical
# output; see docs/RESILIENCE.md and the ci.sh chaos smoke.
chaos:
	$(GO) run ./cmd/mummi-sim campaign -scale 0.02 -seed 7 \
		-faults 'store-transient-error:0.10;store-latency-spike:0.05;store-permanent-error:0.01;node-crash:8/day;job-hang:12/day;wm-crash:2/day'

# Scenario matrix: replay every committed workflow instance under
# scenarios/ and gate each against its committed
# BENCH_scenario_<name>.json ledger by byte equality. See
# docs/SCENARIOS.md.
matrix:
	$(GO) run ./scripts/matrix
	$(GO) run ./scripts/matrix -scenarios scenarios/generated
	$(GO) run ./scripts/matrix -scenarios scenarios/paper

# Rewrite the committed per-scenario ledgers after an intentional
# behaviour change; commit the resulting diff alongside the change that
# caused it.
matrix-update:
	$(GO) run ./scripts/matrix -update
	$(GO) run ./scripts/matrix -scenarios scenarios/generated -update
	$(GO) run ./scripts/matrix -scenarios scenarios/paper -update

# Regenerate the committed scenario files: the named catalog
# (internal/trace/catalog.go) plus the fixed Gen(42, 3) sweep that ci.sh
# gates under scenarios/generated/. TestCommittedScenariosMatchCatalog
# pins scenarios/*.trace.json to exactly the catalog output.
scenarios:
	$(GO) run ./cmd/mummi-sim trace gen -catalog -outdir scenarios
	$(GO) run ./cmd/mummi-sim trace gen -seed 42 -n 3 -outdir scenarios/generated

# Non-test Go lines per package — the tracked number the north star's
# second aim (ROADMAP "Keep shrinking") asks to fall or hold.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

ci:
	./scripts/ci.sh
