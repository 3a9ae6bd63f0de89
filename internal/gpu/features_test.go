package gpu

import (
	"context"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
)

// TestMSHRMerging: many warps load the same line concurrently; some of the
// later accesses must merge into the in-flight fill rather than count as
// independent misses.
func TestMSHRMerging(t *testing.T) {
	src := `
	mov r1, %tid.x
	iadd r2, $0, 0
	ldg r3, [r2]          // every thread loads the same line
	imad r4, %ctaid.x, %ntid.x, r1
	shl r5, r4, 2
	iadd r6, $1, r5
	stg [r6], r3
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	vals := mem.AllocU32([]uint32{123})
	out := mem.Alloc(16 * 256 * 4)
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 16, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
	lc.Params[0] = vals
	lc.Params[1] = out

	cfg := DefaultConfig()
	cfg.NumSMs = 1
	res, err := RunContext(context.Background(), cfg, sm.Baseline(), prog, lc, mem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MSHRMerges == 0 {
		t.Error("no MSHR merges on a same-line load burst")
	}
	// Only the first access per SM misses; the line stays resident.
	if res.Stats.L1Misses > 4 {
		t.Errorf("L1 misses = %d for a single shared line", res.Stats.L1Misses)
	}
	for i, v := range mem.ReadU32(out, 16*256) {
		if v != 123 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestLRRSchedulerRuns: the LRR policy must produce identical functional
// results and sane timing.
func TestLRRScheduler(t *testing.T) {
	src := `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	imul r3, r2, 3
	iadd r3, r3, 7
	shl r4, r2, 2
	iadd r5, $0, r4
	stg [r5], r3
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(pol sm.SchedPolicy) ([]uint32, uint64) {
		mem := kernel.NewMemory()
		out := mem.Alloc(8 * 128 * 4)
		lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 8, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
		lc.Params[0] = out
		cfg := DefaultConfig()
		cfg.NumSMs = 2
		arch := sm.GScalar()
		arch.Sched = pol
		res, err := RunContext(context.Background(), cfg, arch, prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		return mem.ReadU32(out, 8*128), res.Stats.Cycles
	}
	gto, cg := run(sm.SchedGTO)
	lrr, cl := run(sm.SchedLRR)
	for i := range gto {
		if gto[i] != lrr[i] {
			t.Fatalf("functional divergence between schedulers at %d", i)
		}
		if gto[i] != uint32(i*3+7) {
			t.Fatalf("out[%d] = %d", i, gto[i])
		}
	}
	if cg == 0 || cl == 0 {
		t.Fatal("zero cycles")
	}
}

// TestMoveElisionReducesMoves: a kernel with a dead-on-divergent-write
// temporary must inject fewer moves under the compiler-assisted
// architecture, with identical functional output.
func TestMoveElisionReducesMoves(t *testing.T) {
	src := `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	mov r5, 7                // compressed scalar
	mov r7, 0
	mov r8, 0
LOOP:
	isetp.lt p0, r1, 16
	@p0 bra SKIP
	mov r5, 3                // divergent write; r5 used only below
	imul r6, r5, 2
	iadd r7, r7, r6
SKIP:
	iadd r8, r8, 1
	mov r5, 9                // convergent rewrite re-compresses r5
	isetp.lt p1, r8, 6
	@p1 bra LOOP
	shl r9, r2, 2
	iadd r10, $0, r9
	stg [r10], r7
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(arch sm.Arch) (Result, []uint32) {
		mem := kernel.NewMemory()
		out := mem.Alloc(4 * 128 * 4)
		lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
		lc.Params[0] = out
		cfg := DefaultConfig()
		cfg.NumSMs = 1
		res, err := RunContext(context.Background(), cfg, arch, prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		return res, mem.ReadU32(out, 4*128)
	}
	hw, outHW := run(sm.GScalar())
	ca, outCA := run(sm.GScalarCompilerAssist())
	if hw.Stats.InjectedMoves == 0 {
		t.Fatal("hardware architecture injected no moves (test kernel broken)")
	}
	if ca.Stats.InjectedMoves >= hw.Stats.InjectedMoves {
		t.Errorf("elision did not reduce moves: %d vs %d",
			ca.Stats.InjectedMoves, hw.Stats.InjectedMoves)
	}
	if ca.Stats.MovesElided == 0 {
		t.Error("no elisions recorded")
	}
	for i := range outHW {
		if outHW[i] != outCA[i] {
			t.Fatalf("elision changed results at %d", i)
		}
	}
}

// TestRegisterCapacityLimitsResidency: a register-hungry kernel must reduce
// concurrent CTAs but still complete correctly.
func TestRegisterCapacityLimitsResidency(t *testing.T) {
	// Use many registers so one CTA costs 256 threads × 60 regs × 4 B =
	// ~61 KB: only 2 CTAs fit in 128 KB even though 8 slots exist.
	src := "\tmov r1, %tid.x\n\timad r2, %ctaid.x, %ntid.x, r1\n"
	for r := 3; r <= 59; r++ {
		src += "\tiadd r" + itoa(r) + ", r2, " + itoa(r) + "\n"
	}
	src += "\tshl r60, r2, 2\n\tiadd r61, $0, r60\n\tstg [r61], r59\n\texit\n"
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	out := mem.Alloc(12 * 256 * 4)
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 12, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
	lc.Params[0] = out
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.MaxCycles = 5_000_000
	if _, err := RunContext(context.Background(), cfg, sm.Baseline(), prog, lc, mem); err != nil {
		t.Fatal(err)
	}
	got := mem.ReadU32(out, 12*256)
	for i, v := range got {
		if v != uint32(i+59) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+59)
		}
	}
}

// TestOversizedGatherDispatches: a 64-wide warp whose gather touches more
// lines than the MSHR file holds must still complete (it dispatches when
// the file drains) rather than deadlock.
func TestOversizedGatherDispatches(t *testing.T) {
	src := `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 7            // one 128-byte line per lane: 64 lines per warp
	iadd r4, $0, r3
	ldg r5, [r4]
	shl r6, r2, 2
	iadd r7, $1, r6
	stg [r7], r5
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 4 * 256
	mem := kernel.NewMemory()
	vals := make([]uint32, threads*32)
	for i := range vals {
		vals[i] = uint32(i)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
	lc.Params[0] = mem.AllocU32(vals)
	lc.Params[1] = mem.Alloc(threads * 4)

	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.WarpSize = 64 // a gather touches 64 lines, more than sm.MaxMSHRs
	cfg.MaxWarpsPerSM = 24
	cfg.MaxCycles = 2_000_000
	if _, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem); err != nil {
		t.Fatal(err)
	}
	got := mem.ReadU32(lc.Params[1], threads)
	for i, v := range got {
		if v != uint32(i*32) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*32)
		}
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}
