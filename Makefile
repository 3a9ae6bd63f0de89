# Verification targets. `make check` is the tier-1 gate (see ROADMAP.md):
# gofmt cleanliness, build, the full test suite, vet (of the root module and
# of perfbench, the benchmark's own module), each Go benchmark run once at
# its smallest size (benchsmoke), the examples, the figure golden (expdet),
# the benchmark's result pins (pincheck), and a race-detector pass. The
# per-area targets below (valcancel, relaxdet, tracedet, telemetry, gendet,
# serve, perfsmoke) run subsets of `go test ./...` to re-verify one area in
# isolation, so `check` runs only what they add: the race passes of gendet
# and serve, which `race` carries, and perfsmoke's benchmark lines, which
# `benchsmoke` carries.

GO ?= go

.PHONY: check build test vet perfbench race valcancel relaxdet tracedet telemetry gendet perfsmoke benchsmoke examples serve expdet pincheck tracecheck fmt fmtcheck profile

check: fmtcheck build test vet perfbench benchsmoke examples expdet pincheck race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# perfbench/ is its own module (replace gscalar => ../), so the root
# `go build ./...` skips it. Vetting it here fails a change that removes
# public API the benchmark calls before the benchmark run does.
perfbench:
	cd perfbench && $(GO) vet .

fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

valcancel:
	$(GO) test -run 'TestConfig|TestValidate|TestNormalize|TestNewSession|TestCancel|TestDeadline|TestRunRejects' . ./internal/gpu

# A race-detector pass over the packages that run goroutines: the chip
# loop's worker pool, the experiment prewarm fan-out, the store and sweep
# server, and the generator and workload layers. It uses -short because the
# detector slows simulation ~10x. The -short root pass still drives the
# relaxed schedule (accuracy-envelope subset + determinism), and
# internal/gpu's worker-invariance and startup-order tests (relaxed and
# phased) all run in short mode, so the detector covers the worker pool and
# both parallel commit paths.
race:
	$(GO) test -race -short . ./internal/gpu ./internal/experiments ./internal/gen ./internal/workloads ./internal/store ./internal/serve

# Relaxed-schedule differential oracle: the full 17-workload x 2-architecture
# accuracy envelope against the serial schedule plus the (Workers, EpochCycles)
# determinism contract — root-level over real workloads, internal/gpu-level
# for worker-startup-order, functional-correctness and MaxCycles-at-epoch-start
# properties.
relaxdet:
	$(GO) test -run 'TestRelaxed|TestResolveWorkers' . ./internal/gpu

# Trace capture/replay gate: the internal/trace codec unit tests (round-trip,
# truncation/version/CRC rejection, skipping unknown sections and the retired
# tag-5 record stream) plus the root-level capture→replay determinism suite —
# every builtin workload captured under each of the serial, phased and
# relaxed schedules and replayed byte-identically (Result + telemetry) to the
# live run of that schedule, content-hash key stability, and a trace
# re-captured at the same path resolving to the new file. Runs the full
# 17-workload x 2-architecture x 3-schedule sweep (~45 s).
tracedet:
	$(GO) test ./internal/trace
	$(GO) test -run 'TestTrace|TestUnknownWorkloadSpec' .

# Telemetry gate: the registry/recorder unit tests, the exporter goldens
# (JSON/CSV/Chrome-trace shape), the telemetry-on-vs-off bit-identity
# check, and the stall golden, which pins the digests of fifteen real runs'
# exports. Kept as its own target so exporter-format changes are easy to
# re-verify in isolation.
telemetry:
	$(GO) vet ./internal/telemetry
	$(GO) test ./internal/telemetry
	$(GO) test -run 'Telemetry|Metrics|ResultJSON|StallAccountingGolden' .

# Serving gate: the result store (atomic writes, index rebuild, the Store.Do
# memo on both backends) and the sweep-server HTTP handlers
# (submit/dedup/cancel/drain-resume), under the race detector — Store.Do is
# shared by the server's worker pool and the experiment prewarm fan-out, so
# these paths must be detector-clean.
serve:
	$(GO) vet ./internal/store ./internal/serve ./cmd/gscalar-serve
	$(GO) test ./internal/store ./internal/serve
	$(GO) test -race -short ./internal/store ./internal/serve

# Figure golden: the whole evaluation sweep (`gscalar-experiments -exp all`,
# prewarmed on 2 workers) must print experiments_output.txt byte for byte,
# less the file's EXIT=0 trailer. Every simulated number of every figure
# passes through the point memo, so this guards the memo as well as the
# simulator. About 13 s on a 2-vCPU host with a warm build cache.
expdet:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/gscalar-experiments -exp all -parallel 2 > "$$tmp/out" && \
	sed '$$d' experiments_output.txt | diff -u - "$$tmp/out" && \
	echo "expdet: -exp all reproduces experiments_output.txt"

# Benchmark result pins: build perfbench (its own module) into a temporary
# directory and run its pin mode from the repo root, which simulates every
# point the benchmark checks and writes each Result digest. The output must
# equal perfbench/digests.json byte for byte, the check the benchmark makes
# of its own results. It only reads perfbench/. About 15 s on a 2-vCPU host.
pincheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	(cd perfbench && $(GO) build -o "$$tmp/perfbench" .) && \
	"$$tmp/perfbench" -mode pin -out "$$tmp/digests.json" -tmp "$$tmp/work" && \
	diff -u perfbench/digests.json "$$tmp/digests.json" && \
	echo "pincheck: perfbench -mode pin reproduces perfbench/digests.json"

# Traced benchmark runs: each perfbench workload once for 30 s at seed 1
# with -trace 1. Besides the pinned digests, a traced run checks each
# workload's character (stall-bound: chip IPC < 1, an `sm` share of the
# profiled CPU >= 0.5 and a warp+core share < 0.15), so a change that moves
# where host time goes can fail the benchmark while every test passes. Each
# run must exit 0 and its last line must report "correct": true and
# "failed": 0; perfbench prints each failed check on stderr, which passes
# through. It only reads perfbench/; the build, the accuracy reference
# and the scratch files land in the gitignored .bench_build/. It takes
# minutes, so `check` does not run it.
TRACECHECK_WORKLOADS = paper-sweep stall-bound serve-mixed
tracecheck:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for w in $(TRACECHECK_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 1 > "$$out" || \
			{ echo "tracecheck: $$w: perfbench exited non-zero"; exit 1; }; \
		tail -n 1 "$$out" | python3 -c 'import json, sys; r = json.load(sys.stdin); \
print("tracecheck: %s: correct %s, failed %d of %d" % (sys.argv[1], r["correct"], r["failed"], r["attempted"])); \
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' $$w || exit 1; \
	done

# Synthetic-generator gate: the gen-package unit tests (dial parsing and
# typed errors, canonicalization round-trip, schema sanity, byte-identical
# builds), the workload-spec grammar tests (ParseSpec + the FuzzParseSpec
# seed corpus), and the root-level calibration suite — dial accuracy over
# the ≥20-vector grid on both architectures, serial/phased agreement, and
# the GOMAXPROCS determinism gate. The race pass is scaled down to the
# cheap unit layers; the root race coverage comes from the `race` target's
# -short pass.
gendet:
	$(GO) test ./internal/gen ./internal/workloads
	$(GO) test -run 'TestGen' .
	$(GO) test -race -short ./internal/gen ./internal/workloads

# Perf smoke: fail fast when a workload blows a generous wall-clock ceiling
# (order-of-magnitude simulator regressions, not benchmarking), and run each
# benchmark once (benchsmoke).
perfsmoke: benchsmoke
	$(GO) test -short -run 'TestPerfSmoke' .

# Run each benchmark once at its smallest size so it stays runnable: one
# batch of each input of the SM layer's benchmark, and one round of HS at
# scale 1 under the five chip-loop schedules, with the schedule benchmark's
# identity checks. To time them:
#   go test -run '^$' -bench SMCycle -benchmem ./internal/sm
#   go test -run '^$' -bench Schedules -benchtime 1x .   (about a minute)
benchsmoke:
	$(GO) test -run '^$$' -bench SMCycle -benchtime 1x ./internal/sm
	$(GO) test -short -run '^$$' -bench Schedules -benchtime 1x .

# Examples gate: run each program under examples/ once with its default
# flags; a non-zero exit fails the gate. Their output is not compared. About
# 3 s in total on a 2-vCPU host once the build cache is warm.
examples:
	@for e in examples/*/; do \
		$(GO) run ./$$e > /dev/null || { echo "examples: $$e failed"; exit 1; }; \
	done; echo "examples: every example ran"

# End-to-end CPU/heap profiling: run the LBM stressor under gscalar-sim's
# -cpuprofile/-memprofile and print the top-10 hot functions of each.
PROFILE_BENCH ?= LBM
profile:
	$(GO) build -o gscalar-sim.prof.bin ./cmd/gscalar-sim
	./gscalar-sim.prof.bin -workload $(PROFILE_BENCH) \
		-cpuprofile $(PROFILE_BENCH).cpu.pprof -memprofile $(PROFILE_BENCH).mem.pprof
	$(GO) tool pprof -top -nodecount=10 gscalar-sim.prof.bin $(PROFILE_BENCH).cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		gscalar-sim.prof.bin $(PROFILE_BENCH).mem.pprof
