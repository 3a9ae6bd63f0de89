package gpu

import (
	"context"
	"math/rand"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
	"gscalar/internal/warp"
)

// relaxedResult strips the execution metadata from a Result so runs that
// differ only in how they executed (worker count) compare equal.
func relaxedResult(r Result) Result {
	r.ExecMode = ""
	r.Workers = 0
	return r
}

// TestRelaxedFunctionalCorrectness cross-checks the relaxed epoch loop
// against the functional golden model on randomly generated kernels: global
// stores stay buffered for up to a whole epoch there, so this exercises the
// store-buffer overlay (same-SM read-after-write through global memory) that
// the per-cycle modes never need.
func TestRelaxedFunctionalCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		src := genKernel(rng)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		const threads = 4 * 96
		lc := func(m *kernel.Memory) *kernel.LaunchConfig {
			l := &kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 96, Y: 1}}
			l.Params[0] = m.Alloc(threads * 16)
			return l
		}

		mRef := kernel.NewMemory()
		lRef := lc(mRef)
		if _, err := warp.FuncRun(prog, lRef, mRef, 32, 2_000_000); err != nil {
			t.Fatalf("trial %d functional: %v\n%s", trial, err, src)
		}
		want := mRef.ReadU32(lRef.Params[0], threads*4)

		mT := kernel.NewMemory()
		lT := lc(mT)
		cfg := DefaultConfig()
		cfg.NumSMs = 2
		cfg.MaxCycles = 5_000_000
		cfg.Workers = 2
		cfg.EpochCycles = 64
		if _, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lT, mT); err != nil {
			t.Fatalf("trial %d relaxed: %v\n%s", trial, err, src)
		}
		got := mT.ReadU32(lT.Params[0], threads*4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mem[%d] = %d, want %d\n%s", trial, i, got[i], want[i], src)
			}
		}
	}
}

// relaxedRun runs one fixed kernel under the relaxed loop with the given
// worker count and epoch length (0 selects the phased loop instead),
// returning the Result and final memory.
func relaxedRun(t *testing.T, src string, workers, epochCycles int) (Result, []uint32) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 8 * 64
	m := kernel.NewMemory()
	l := &kernel.LaunchConfig{Grid: kernel.Dim{X: 8, Y: 1}, Block: kernel.Dim{X: 64, Y: 1}}
	l.Params[0] = m.Alloc(threads * 16)
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxCycles = 5_000_000
	cfg.Workers = workers
	cfg.EpochCycles = epochCycles
	r, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, l, m)
	if err != nil {
		t.Fatalf("run (workers=%d, epoch=%d): %v", workers, epochCycles, err)
	}
	return r, m.ReadU32(l.Params[0], threads*4)
}

// TestRelaxedWorkerCountInvariance checks the core determinism promise of
// the relaxed mode: for a fixed EpochCycles, every worker count — and every
// worker-goroutine startup order — produces the identical Result, because
// commit order is a pure function of (SM index, issue cycle).
func TestRelaxedWorkerCountInvariance(t *testing.T) {
	src := genKernel(rand.New(rand.NewSource(11)))

	base, baseMem := relaxedRun(t, src, 1, 64)
	if base.ExecMode != "relaxed" {
		t.Fatalf("ExecMode = %q, want relaxed", base.ExecMode)
	}
	for _, workers := range []int{2, 3, 4} {
		r, mem := relaxedRun(t, src, workers, 64)
		if relaxedResult(r) != relaxedResult(base) {
			t.Errorf("workers=%d: Result differs from workers=1:\n got %+v\nwant %+v", workers, r, base)
		}
		if r.Workers != workers {
			t.Errorf("workers=%d: resolved Workers = %d", workers, r.Workers)
		}
		for i := range baseMem {
			if mem[i] != baseMem[i] {
				t.Fatalf("workers=%d: mem[%d] = %d, want %d", workers, i, mem[i], baseMem[i])
			}
		}
	}

	// Reversed worker startup order: SM ownership is keyed by worker index,
	// not launch order, so this must be invisible too — for the relaxed
	// loop and for the phased loop, which shares the worker pool.
	phasedBase, phasedBaseMem := relaxedRun(t, src, 1, 0)
	workerStartOrder = func(n int) []int {
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		return order
	}
	defer func() { workerStartOrder = nil }()
	r, _ := relaxedRun(t, src, 4, 64)
	if relaxedResult(r) != relaxedResult(base) {
		t.Errorf("reversed worker startup: Result differs:\n got %+v\nwant %+v", r, base)
	}
	r, mem := relaxedRun(t, src, 4, 0)
	if r.ExecMode != "phased" || r.Workers != 4 {
		t.Fatalf("phased run executed as %s with %d workers, want phased with 4", r.ExecMode, r.Workers)
	}
	if relaxedResult(r) != relaxedResult(phasedBase) {
		t.Errorf("phased, reversed worker startup: Result differs from workers=1:\n got %+v\nwant %+v", r, phasedBase)
	}
	for i := range phasedBaseMem {
		if mem[i] != phasedBaseMem[i] {
			t.Fatalf("phased, reversed worker startup: mem[%d] = %d, want %d", i, mem[i], phasedBaseMem[i])
		}
	}
}

// TestRelaxedRepeatable checks run-to-run reproducibility of a fixed
// (Workers, EpochCycles) pair.
func TestRelaxedRepeatable(t *testing.T) {
	src := genKernel(rand.New(rand.NewSource(23)))
	first, firstMem := relaxedRun(t, src, 4, 256)
	for rep := 0; rep < 3; rep++ {
		r, mem := relaxedRun(t, src, 4, 256)
		if r != first {
			t.Fatalf("rep %d: Result differs:\n got %+v\nwant %+v", rep, r, first)
		}
		for i := range firstMem {
			if mem[i] != firstMem[i] {
				t.Fatalf("rep %d: mem[%d] differs", rep, i)
			}
		}
	}
}

// TestResolveWorkersRelaxedSmallLaunch pins the resolveWorkers fix: a
// multi-CTA launch smaller than the SM count must keep its requested
// workers in relaxed mode (the epoch barrier amortises), while the phased
// mode still clamps to 1 (its per-cycle barrier does not).
func TestResolveWorkersRelaxedSmallLaunch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 15
	cfg.Workers = 4

	if got := resolveWorkers(cfg, 8); got != 1 {
		t.Errorf("phased, 8 CTAs < 15 SMs: resolveWorkers = %d, want 1", got)
	}
	cfg.EpochCycles = 64
	if got := resolveWorkers(cfg, 8); got != 4 {
		t.Errorf("relaxed, 8 CTAs < 15 SMs: resolveWorkers = %d, want 4", got)
	}
	if got := resolveWorkers(cfg, 1); got != 1 {
		t.Errorf("relaxed, 1 CTA: resolveWorkers = %d, want 1", got)
	}
	cfg.NumSMs = 1
	if got := resolveWorkers(cfg, 8); got != 1 {
		t.Errorf("relaxed, 1 SM: resolveWorkers = %d, want 1", got)
	}
}

// TestRelaxedMaxCyclesAtEpochStart covers the bound expiring while the
// chip is quiescent: the single SM waits on a DRAM load that completes
// after MaxCycles, so the next epoch's start lands past the bound. The run
// must fail with the same text the per-cycle schedules report.
func TestRelaxedMaxCyclesAtEpochStart(t *testing.T) {
	prog, err := asm.Assemble(`
	mov r1, %tid.x
	shl r2, r1, 2
	iadd r3, $0, r2
	ldg r4, [r3]
	stg [r3], r4
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(epochCycles int) error {
		mem := kernel.NewMemory()
		lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
		lc.Params[0] = mem.Alloc(32 * 4)
		cfg := DefaultConfig()
		cfg.NumSMs = 1
		cfg.MaxCycles = 200
		cfg.EpochCycles = epochCycles
		_, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem)
		return err
	}
	const want = "gpu: exceeded 200 cycles (deadlock or runaway kernel)"
	if err := run(0); err == nil || err.Error() != want {
		t.Fatalf("serial: err = %v, want %q", err, want)
	}
	if err := run(16); err == nil || err.Error() != want {
		t.Errorf("relaxed: err = %v, want %q", err, want)
	}
}
