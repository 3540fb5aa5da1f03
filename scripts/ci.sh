#!/bin/sh
# Minimal CI gate: static analysis first (gofmt, vet + the project's own analyzer
# suite, cmd/mummi-lint, stale-suppression audit included), then build, the
# full test suite, and the race-detector pass over the whole module. Mirrors
# the Makefile targets; stdlib toolchain only, no external dependencies.
set -eux

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

test -z "$(gofmt -l .)"
go vet ./...
go run ./cmd/mummi-lint ./...

# One of everything in the linter (docs/LINT.md): one lock-state walk — the
# only statement-kind switch in the package — and no second
# blocking-under-lock analyzer growing back beside lockdiscipline.
test "$(grep -l 'ast.TypeSwitchStmt' internal/lint/*.go | grep -vc _test.go)" -eq 1
if grep -rq channeldiscipline --include='*.go' .; then
	echo "ci: channeldiscipline is gone; its blocking-under-lock rule lives in lockdiscipline" >&2
	exit 1
fi
go build ./...

# One goroutine drives the coordination layers (DESIGN.md §6): the WM, its
# fleet, the conductor, the scheduler, the selectors, the fault engine, the
# profiler and the virtual clock are callbacks on one clock, ordered by its
# event order, not by locks. So none of them imports sync or sync/atomic,
# and none has a go statement outside its tests; the selectors' rank
# refresh fans out through internal/parallel, which joins its workers
# before it returns.
for pkg in core sched wmfleet dynim maestro faults profile vclock; do
	if go list -f '{{join .Imports "\n"}}' "./internal/$pkg" | grep -xE 'sync|sync/atomic'; then
		echo "ci: internal/$pkg imports sync; it runs on the clock's one goroutine" >&2
		exit 1
	fi
	if grep -nE '^[[:space:]]*go[[:space:]]+[[:alnum:]_(]' $(ls internal/$pkg/*.go | grep -v _test.go); then
		echo "ci: internal/$pkg starts a goroutine; it runs on the clock's one goroutine" >&2
		exit 1
	fi
done

# The campaign package is the replay and nothing else: the systems
# experiments that drive the kv store, the filesystem store and taridx live
# in cmd/mummi-sim beside exp's table, so none of those packages is in the
# replay's dependency closure (nor, through it, in trace's or the matrix's).
if go list -deps ./internal/campaign | grep -E '^mummi/internal/(kvstore|fsstore|taridx)$'; then
	echo "ci: internal/campaign depends on a store package the replay does not use" >&2
	exit 1
fi

# The campaign is a stepper (docs/RESILIENCE.md "The allocation rig"): its
# clock advances only inside Campaign.Step, so an observer between Steps
# sees every event.
test "$(awk '/^func /{f=$0} /\.clk\.(Step|Run|RunUntil|RunFor)\(/{print FILENAME ": " f}' \
	$(ls internal/campaign/*.go | grep -v _test.go) | sort -u)" = \
	"internal/campaign/campaign.go: func (c *Campaign) Step() bool {"

# One backward data path (docs/ARCHITECTURE.md "internal/feedback"): every
# feedback manager, the campaign's included, is one feedback.Pass, the only
# caller of the fetch and tag phases.
test "$(awk '/^func /{f=$0; sub(/\(.*/, "", f); next} /(fetchAll|tagAll)\(/{print FILENAME ": " f}' \
	$(ls internal/feedback/*.go | grep -v _test.go) | sort -u)" = "internal/feedback/feedback.go: func Pass"
# One capability helper: the store wrappers preserve batch capabilities
# through datastore.Extend, whose two adapters are the only GetBatch and
# MoveBatch methods the wrapper packages declare.
for m in GetBatch MoveBatch; do
	test "$(grep -rE "^func \([^)]*\) $m\(" --include='*.go' --exclude='*_test.go' internal/datastore internal/faults | wc -l)" -eq 1
done
# One kvstore client (docs/KVSTORE.md "Clients"): Store makes Cluster
# calls, so each command the client sends is encoded once in non-test
# internal/kvstore. The server's dispatch switches on strings and is not
# counted.
for cmd in GET SET DEL RENAME MGET MSET KEYS; do
	test "$(grep -rhoF "[]byte(\"$cmd\")" --include='*.go' --exclude='*_test.go' internal/kvstore | wc -l)" -eq 1
done

# The FPS distance kernel (internal/dynim/fold*.go; DESIGN.md "dynim: the
# distance kernel") folds selected rows stored four to a block, one row per
# SIMD lane. It has two bodies: the Go loop in fold.go, which is the
# definition, and an AVX2 one in fold_amd64.s (go vet's asmdecl checks it
# above) that a CPUID + XGETBV probe picks once at init on amd64; a host
# without AVX2, and every other GOARCH, runs the Go loop. Every replay digest
# follows from the kernel's bits, and a fused multiply-add rounds once where
# the definition rounds twice, so: the assembly names no fused mnemonic; the
# module cross-builds for arm64, so the Go body cannot rot; and fold.go's
# arm64 listing holds no fused multiply-add. Compile-only; nothing here runs
# arm64 code.
if grep -E 'VFN?M(ADD|SUB)' internal/dynim/fold_amd64.s; then
	echo "ci: internal/dynim/fold_amd64.s fuses a multiply-add" >&2
	exit 1
fi
GOARCH=arm64 go build ./...
GOARCH=arm64 go build -gcflags=-S ./internal/dynim 2>&1 | grep 'fold\.go' >"$tmpdir/fold-arm64.S"
grep -q FMULD "$tmpdir/fold-arm64.S"
if grep -E 'FN?M(ADD|SUB)' "$tmpdir/fold-arm64.S"; then
	echo "ci: arm64 fuses a multiply-add in internal/dynim/fold.go" >&2
	exit 1
fi
# The Go loop, with the strided head and tail rows foldRows hands it, exists
# once.
test "$(grep -rl 'a0 += ' internal/dynim --include='*.go' --exclude='*_test.go')" = internal/dynim/fold.go
# FPS eviction is one threshold select over reused scratch (DESIGN.md
# "dynim: what an offer costs"): no sort.Slice, with its per-call swapper,
# in the samplers; victim order and slot frees sort in place.
test -z "$(grep -rn 'sort\.Slice' internal/dynim --include='*.go' --exclude='*_test.go')"
# FPS dedupes by a high-water mark, a selected set that only grows and the
# queue's own IDs (DESIGN.md "dynim: what an offer costs"): nothing in the
# samplers is ever deleted from a map, so a delete means the churned ID map
# came back.
test -z "$(grep -rn 'delete(' internal/dynim --include='*.go' --exclude='*_test.go')"
# The event loop pays per event, not per name or per live job (DESIGN.md
# "Coordinator bookkeeping follows events"). Outside internal/telemetry a
# metric is a telemetry.Lazy handle resolved at its first event, never a
# registry lookup by name on every event; and the campaign draws victims
# from its live-job index and sweeps it in ID order, so nothing in it sorts
# with sort.Slice.
test -z "$(grep -rnE '\.(Counter|Gauge|Histogram)\(' internal --include='*.go' --exclude='*_test.go' | grep -v '^internal/telemetry/')"
test -z "$(grep -rn 'sort\.Slice' internal/campaign --include='*.go' --exclude='*_test.go')"
# The virtual clock has one pending structure, the four-ary heap (DESIGN.md
# §11): no same-timestamp drain batch, paged index or ID map beside it.
test -z "$(grep -rnE 'batch|eventPage|indexTake|map\[EventID\]\*event' internal/vclock --include='*.go' --exclude='*_test.go')"

go test ./...
go test -race ./...

# The tracked size (the north star's second aim, ROADMAP "Keep shrinking"): non-test
# Go lines per package, in every CI log.
make -s loc

# Every internal/ package needs a non-test importer: a package only its own
# tests reach is dead code with a test suite. internal/integration is tests
# only and internal/datastore/dstest is a shared test harness.
for dir in $(find internal -name '*.go' ! -path '*/testdata/*' -exec dirname {} \; | sort -u); do
	case "$dir" in internal/integration | internal/datastore/dstest) continue ;; esac
	if ! grep -rqF "\"mummi/$dir\"" --include='*.go' --exclude='*_test.go' .; then
		echo "ci: $dir has no non-test importer" >&2
		exit 1
	fi
done

# Benchmark smoke: one short rep of each workload of the repository's
# benchmark (bench/README.md). It exits non-zero when a workload's output
# check fails, so a change that moves replay bytes fails here; it measures
# nothing worth comparing — timing claims need the full `go run ./bench`.
go run ./bench -quick

# Observability smoke: the example campaign must emit a loadable Chrome
# trace and a metrics snapshot with nonzero counters for all four workflow
# tasks (tracecheck fails on empty or unparsable artifacts, and on a
# histogram with observations and a zero sum).
go run ./cmd/mummi-sim campaign -scale 0.02 \
	-trace "$tmpdir/trace.json" -metrics "$tmpdir/metrics.json"
go run ./scripts/tracecheck "$tmpdir/trace.json" "$tmpdir/metrics.json"

# Chaos smoke: a campaign with every fault class at aggressive rates must
# complete, and two same-seed runs must be byte-identical — the fault
# ledger on stdout and the full metrics snapshot and trace event stream.
chaosplan='store-transient-error:0.10;store-latency-spike:0.05;store-permanent-error:0.01;node-crash:8/day;job-hang:12/day;wm-crash:2/day'
go run ./cmd/mummi-sim campaign -scale 0.02 -seed 7 -faults "$chaosplan" \
	-trace "$tmpdir/chaos1-trace.json" -metrics "$tmpdir/chaos1-metrics.json" >"$tmpdir/chaos1.out"
go run ./cmd/mummi-sim campaign -scale 0.02 -seed 7 -faults "$chaosplan" \
	-trace "$tmpdir/chaos2-trace.json" -metrics "$tmpdir/chaos2-metrics.json" >"$tmpdir/chaos2.out"
# Drop the wall-clock line ("replayed in Nms") and the artifact-path lines
# ("-> .../chaosN-trace.json") before comparing.
grep -v -e 'replayed in' -e ' -> ' "$tmpdir/chaos1.out" >"$tmpdir/chaos1.cmp"
grep -v -e 'replayed in' -e ' -> ' "$tmpdir/chaos2.out" >"$tmpdir/chaos2.cmp"
diff "$tmpdir/chaos1.cmp" "$tmpdir/chaos2.cmp"
diff "$tmpdir/chaos1-metrics.json" "$tmpdir/chaos2-metrics.json"
diff "$tmpdir/chaos1-trace.json" "$tmpdir/chaos2-trace.json"
grep -q 'wm restarts' "$tmpdir/chaos1.out"
go run ./scripts/tracecheck "$tmpdir/chaos1-trace.json" "$tmpdir/chaos1-metrics.json"

# The same plan and seed over a three-instance WM fleet: crash, lease expiry,
# adoption, the hung-job watchdog and job-hang faults through the CLI, held
# to the same byte-identity.
for i in 1 2; do
	go run ./cmd/mummi-sim campaign -scale 0.02 -seed 7 -faults "$chaosplan" -wm-instances 3 \
		-trace "$tmpdir/fleet$i-trace.json" -metrics "$tmpdir/fleet$i-metrics.json" >"$tmpdir/fleet$i.out"
	grep -v -e 'replayed in' -e ' -> ' "$tmpdir/fleet$i.out" >"$tmpdir/fleet$i.cmp"
done
diff "$tmpdir/fleet1.cmp" "$tmpdir/fleet2.cmp"
diff "$tmpdir/fleet1-metrics.json" "$tmpdir/fleet2-metrics.json"
diff "$tmpdir/fleet1-trace.json" "$tmpdir/fleet2-trace.json"
grep -q 'wm-adopt' "$tmpdir/fleet1.out"
go run ./scripts/tracecheck "$tmpdir/fleet1-trace.json" "$tmpdir/fleet1-metrics.json"

# Worker-count smoke: the selector splits its rank refresh over -workers
# goroutines and promises the same selections for every count. Hold it
# through the CLI: one worker against four, same counts table, same metrics
# snapshot, same trace.
for w in 1 4; do
	go run ./cmd/mummi-sim exp -exp counts -scale 0.02 -seed 7 -workers "$w" \
		-trace "$tmpdir/w$w-trace.json" -metrics "$tmpdir/w$w-metrics.json" >"$tmpdir/w$w.out"
	# Drop the wall-clock and artifact-path lines, as above.
	grep -v -e 'replayed in' -e ' -> ' "$tmpdir/w$w.out" >"$tmpdir/w$w.cmp"
done
grep -q 'CG sims selected' "$tmpdir/w1.cmp"
diff "$tmpdir/w1.cmp" "$tmpdir/w4.cmp"
diff "$tmpdir/w1-metrics.json" "$tmpdir/w4-metrics.json"
diff "$tmpdir/w1-trace.json" "$tmpdir/w4-trace.json"

# One front door: a workflow instance is a complete configuration, so a
# campaign flag beside -trace-in is an error on every subcommand, and the
# campaign flags are declared in exactly one file under cmd/.
if go run ./cmd/mummi-sim exp -trace-in scenarios/laptop-smoke.trace.json -scale 0.5; then
	echo "ci: exp accepted -scale beside -trace-in" >&2
	exit 1
fi
test "$(grep -rl '"feedback-every"' cmd | wc -l)" -eq 1

# One home for the checkpoint format (docs/RESILIENCE.md "Checkpoint
# record"): its magic-and-version header is declared in exactly one
# non-test Go file, no non-test file of the workflow manager speaks JSON,
# and the fleet parses no JSON but its lease records.
test "$(grep -rl 'MUMMI-CKPT' --include='*.go' --exclude='*_test.go' internal cmd scripts examples bench)" = internal/core/checkpoint.go
test -z "$(grep -l 'encoding/json' internal/core/*.go | grep -v _test.go)"
test "$(grep -l 'encoding/json' internal/wmfleet/*.go | grep -v _test.go)" = internal/wmfleet/lease.go

# Scenario-matrix gate: replay every committed workflow instance under
# scenarios/ and require its fresh ledger to equal the committed one byte
# for byte — which also holds every scenario to same-seed determinism on
# every run (see docs/SCENARIOS.md).
go run ./scripts/matrix

# Generated-sweep gate: the committed scenarios/generated/ sweep is one
# fixed Gen(seed=42, n=3) instance set. Regenerate it from scratch and
# byte-diff against the committed trace files (Gen must stay deterministic
# and schema-stable), then replay the sweep against its committed ledgers
# like any other scenario directory.
go run ./cmd/mummi-sim trace gen -seed 42 -n 3 -outdir "$tmpdir/gen"
diff -r -x 'BENCH_*' "$tmpdir/gen" scenarios/generated
go run ./scripts/matrix -scenarios scenarios/generated

# Paper gate: the paper's schedule at seed 1, at quarter scale and in full
# (scenarios/paper/, pinned to campaign.Options by internal/trace's tests),
# replayed against committed ledgers that carry the numbers EXPERIMENTS.md
# prints: 40,333 CG and 12,234 AA selections, 92.49% mean GPU occupancy.
go run ./scripts/matrix -scenarios scenarios/paper

# Trace round-trip smoke: export a campaign as a workflow instance, import
# and canonically re-export it, and require byte identity end to end
# through the CLI surface.
go run ./cmd/mummi-sim trace export -scale 0.02 -seed 7 -name ci-roundtrip \
	-out "$tmpdir/ci-roundtrip.trace.json"
go run ./cmd/mummi-sim trace import -in "$tmpdir/ci-roundtrip.trace.json" \
	-out "$tmpdir/ci-roundtrip2.trace.json"
diff "$tmpdir/ci-roundtrip.trace.json" "$tmpdir/ci-roundtrip2.trace.json"

# taridx CLI smoke: put a file into an indexed archive and get it back, then
# drop the index, rebuild it from the tar alone and get the file again.
go build -o "$tmpdir/taridx" ./cmd/taridx
head -c 300000 /dev/urandom >"$tmpdir/taridx-in"
"$tmpdir/taridx" put "$tmpdir/smoke.tar" blob "$tmpdir/taridx-in"
"$tmpdir/taridx" get "$tmpdir/smoke.tar" blob >"$tmpdir/taridx-out"
cmp "$tmpdir/taridx-in" "$tmpdir/taridx-out"
rm "$tmpdir/smoke.tar.tari"
"$tmpdir/taridx" rebuild "$tmpdir/smoke.tar"
"$tmpdir/taridx" get "$tmpdir/smoke.tar" blob >"$tmpdir/taridx-out"
cmp "$tmpdir/taridx-in" "$tmpdir/taridx-out"

# kvstore CLI smoke: serve on a free port (the first line of output names
# it), then set, get, keys and del one key against it; a get of the deleted
# key must fail. SIGINT must stop the server with a zero exit.
go build -o "$tmpdir/kvstore" ./cmd/kvstore
"$tmpdir/kvstore" serve -addr 127.0.0.1:0 >"$tmpdir/kv-serve.out" &
kvpid=$!
trap 'kill "$kvpid"; rm -rf "$tmpdir"' EXIT
for _ in $(seq 100); do
	test -s "$tmpdir/kv-serve.out" && break
	sleep 0.1
done
kvaddr=$(sed -n '1s/^kvstore listening on //p' "$tmpdir/kv-serve.out")
kv() {
	kvcmd=$1
	shift
	"$tmpdir/kvstore" "$kvcmd" -addr "$kvaddr" "$@"
}
kv set fb:k1 hello
test "$(kv get fb:k1)" = hello
test "$(kv keys 'fb:*')" = fb:k1
test "$(kv del fb:k1)" = 1
if kv get fb:k1; then
	echo "ci: kvstore get of a deleted key succeeded" >&2
	exit 1
fi
kill -INT "$kvpid"
wait "$kvpid"
trap 'rm -rf "$tmpdir"' EXIT

# Examples smoke: each examples/ program must run to a zero exit. Their
# output is not compared — they print wall times — but a removal that
# breaks one at run time fails here, not only one that breaks its build.
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done
