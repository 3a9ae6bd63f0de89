# Verification targets. `make check` is the tier-1 gate (see ROADMAP.md):
# gofmt cleanliness, build + full tests, vet (of the root module and of
# perfbench, the benchmark's own module), an explicit pass over the
# config-validation / launch-validation / cancellation-determinism suites
# (fast, and the properties the run-session lifecycle depends on), the
# differential, trace, telemetry, generator, perf-smoke (which also runs
# each Go benchmark once at its smallest size) and serving gates below, the
# figure golden (expdet), the benchmark's result pins (pincheck), and a
# race-detector pass over the
# packages that run goroutines (the chip loop's worker pool and the
# experiment prewarm fan-out). The race pass uses -short because the
# detector slows simulation ~10x; the short subset still drives the phased
# and relaxed schedules through the pool.

GO ?= go

.PHONY: check build test vet perfbench race valcancel relaxdet tracedet telemetry gendet perfsmoke serve expdet pincheck fmt fmtcheck profile

check: fmtcheck build test vet perfbench valcancel relaxdet tracedet telemetry gendet perfsmoke serve expdet pincheck race

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

# The -short root pass also drives the relaxed schedule (accuracy-envelope
# subset + determinism), and internal/gpu's worker-invariance and
# startup-order tests (relaxed and phased) all run in short mode, so the
# detector covers the worker pool and both parallel commit paths.
race:
	$(GO) test -race -short . ./internal/gpu ./internal/experiments

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
# simulator. About 35 s on a 2-vCPU host.
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
# benchmark once at its smallest size so it stays runnable: one batch of each
# input of the SM layer's benchmark, and one round of HS at scale 1 under the
# five chip-loop schedules, with the schedule benchmark's identity checks.
# To time them:
#   go test -run '^$' -bench SMCycle -benchmem ./internal/sm
#   go test -run '^$' -bench Schedules -benchtime 1x .   (about a minute)
perfsmoke:
	$(GO) test -short -run 'TestPerfSmoke' .
	$(GO) test -run '^$$' -bench SMCycle -benchtime 1x ./internal/sm
	$(GO) test -short -run '^$$' -bench Schedules -benchtime 1x .

# End-to-end CPU/heap profiling via internal/hostprof: run the LBM stressor
# under -cpuprofile/-memprofile and print the top-10 hot functions of each.
PROFILE_BENCH ?= LBM
profile:
	$(GO) build -o gscalar-sim.prof.bin ./cmd/gscalar-sim
	./gscalar-sim.prof.bin -workload $(PROFILE_BENCH) \
		-cpuprofile $(PROFILE_BENCH).cpu.pprof -memprofile $(PROFILE_BENCH).mem.pprof
	$(GO) tool pprof -top -nodecount=10 gscalar-sim.prof.bin $(PROFILE_BENCH).cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		gscalar-sim.prof.bin $(PROFILE_BENCH).mem.pprof
