package gpu

import (
	"context"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
)

// runSrc assembles and runs src on a small chip, returning the result.
func runSrc(t *testing.T, arch sm.Arch, src string, setup func(m *kernel.Memory, lc *kernel.LaunchConfig)) Result {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 8, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
	if setup != nil {
		setup(mem, lc)
	}
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxCycles = 2_000_000
	res, err := RunContext(context.Background(), cfg, arch, prog, lc, mem)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// uniformChain is a kernel whose loop body is entirely warp-uniform.
const uniformChain = `
	mov r1, 0
	mov r2, $0
LOOP:
	imul r3, r1, 3
	iadd r4, r3, 7
	and  r5, r4, 255
	iadd r1, r1, 1
	isetp.lt p0, r1, r2
	@p0 bra LOOP
	exit
`

func TestEligibilityUniformChain(t *testing.T) {
	res := runSrc(t, sm.GScalar(), uniformChain, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = 32
	})
	frac := float64(res.Stats.EligFullALU) / float64(res.Stats.WarpInsts)
	if frac < 0.7 {
		t.Fatalf("uniform chain ALU-scalar fraction = %.2f, want > 0.7", frac)
	}
	if res.Stats.InjectedMoves != 0 {
		t.Errorf("unexpected injected moves: %d", res.Stats.InjectedMoves)
	}
}

func TestMoveInjection(t *testing.T) {
	// r2 is written uniformly (compressed scalar), then partially updated
	// by a divergent instruction: G-Scalar must inject a decompress move.
	src := `
	mov r1, %tid.x
	mov r2, 7
	isetp.lt p0, r1, 16
	@p0 bra SKIP
	iadd r2, r2, r1
SKIP:
	shl r3, r1, 2
	iadd r4, $0, r3
	stg [r4], r2
	exit
`
	res := runSrc(t, sm.GScalar(), src, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = m.Alloc(128 * 4)
	})
	if res.Stats.InjectedMoves == 0 {
		t.Fatal("no decompress moves injected")
	}
	// Only warp 0 of each CTA mixes both paths (lanes < 16 vs >= 16); the
	// other warps take the not-taken side uniformly and write r2 with a
	// full mask. So: one move per CTA.
	if res.Stats.InjectedMoves != 8 {
		t.Errorf("moves = %d, want 8", res.Stats.InjectedMoves)
	}

	base := runSrc(t, sm.Baseline(), src, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = m.Alloc(128 * 4)
	})
	if base.Stats.InjectedMoves != 0 {
		t.Errorf("baseline injected %d moves", base.Stats.InjectedMoves)
	}
}

func TestScalarBankSerialisation(t *testing.T) {
	// The Gilani baseline funnels all scalar operands through one bank:
	// a scalar-heavy kernel must record conflicts (§4.1's burst problem).
	res := runSrc(t, sm.PriorScalarRF(), uniformChain, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = 64
	})
	if res.Stats.ScalarBankConflicts == 0 {
		t.Fatal("no scalar-bank conflicts recorded on a scalar burst")
	}
	// G-Scalar serves scalars from 16 per-bank BVR arrays: no such choke.
	gs := runSrc(t, sm.GScalar(), uniformChain, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = 64
	})
	if gs.Stats.ScalarBankConflicts != 0 {
		t.Fatalf("G-Scalar recorded %d scalar-bank conflicts", gs.Stats.ScalarBankConflicts)
	}
}

func TestExtraLatencyCostsCycles(t *testing.T) {
	// A dependency-chain kernel: the +3-cycle compressing pipeline must
	// take at least as many cycles as the baseline.
	src := `
	mov r1, 1
	mov r9, 0
LOOP:
	imul r2, r1, 3
	iadd r3, r2, 1
	imul r4, r3, 5
	iadd r1, r4, 2
	iadd r9, r9, 1
	isetp.lt p0, r9, 64
	@p0 bra LOOP
	exit
`
	base := runSrc(t, sm.Baseline(), src, nil)
	rvc := runSrc(t, sm.RVCOnly(), src, nil)
	if rvc.Stats.Cycles <= base.Stats.Cycles {
		t.Fatalf("compressing pipeline (%d cycles) not slower than baseline (%d)",
			rvc.Stats.Cycles, base.Stats.Cycles)
	}
}

func TestTimedBarrier(t *testing.T) {
	// CTA-wide reversal through shared memory: wrong barrier handling
	// produces wrong data or deadlock.
	src := `
	mov r1, %tid.x
	shl r2, r1, 2
	sts [r2], r1
	bar
	mov r3, %ntid.x
	isub r4, r3, r1
	iadd r4, r4, -1
	shl r5, r4, 2
	lds r6, [r5]
	imad r7, %ctaid.x, %ntid.x, r1
	shl r8, r7, 2
	iadd r9, $0, r8
	stg [r9], r6
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	out := mem.Alloc(8 * 128 * 4)
	lc := &kernel.LaunchConfig{
		Grid: kernel.Dim{X: 8, Y: 1}, Block: kernel.Dim{X: 128, Y: 1},
		SharedBytes: 128 * 4,
	}
	lc.Params[0] = out
	cfg := DefaultConfig()
	cfg.NumSMs = 3
	cfg.MaxCycles = 2_000_000
	if _, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem); err != nil {
		t.Fatal(err)
	}
	got := mem.ReadU32(out, 8*128)
	for cta := 0; cta < 8; cta++ {
		for tid := 0; tid < 128; tid++ {
			if got[cta*128+tid] != uint32(127-tid) {
				t.Fatalf("cta %d tid %d = %d, want %d", cta, tid, got[cta*128+tid], 127-tid)
			}
		}
	}
}

func TestDivergentScalarDetectionTimed(t *testing.T) {
	// A divergent path operating on a uniform constant: G-Scalar records
	// divergent-scalar eligibility, G-Scalar-no-div records none.
	src := `
	mov r1, %tid.x
	mov r2, $0
	isetp.lt p0, r1, 20
	@p0 bra A
	imul r3, r1, 3
	bra J
A:
	imul r4, r2, 5
	iadd r4, r4, r2
	imul r5, r4, 2
J:
	exit
`
	gs := runSrc(t, sm.GScalar(), src, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = 9
	})
	if gs.Stats.EligDiv == 0 {
		t.Fatal("no divergent-scalar instructions detected")
	}
	nod := runSrc(t, sm.GScalarNoDiv(), src, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = 9
	})
	if nod.Stats.EligDiv != 0 {
		t.Fatalf("no-div arch detected %d divergent-scalar", nod.Stats.EligDiv)
	}
}

func TestGatherUnderMSHRPressure(t *testing.T) {
	// Every lane hits a different line: 32 transactions per load warp.
	src := `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 7            // 128-byte stride: one line per lane
	iadd r4, $0, r3
	ldg r5, [r4]
	shl r6, r2, 2
	iadd r7, $1, r6
	stg [r7], r5
	exit
`
	res := runSrc(t, sm.GScalar(), src, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		vals := make([]uint32, 8*128*32)
		for i := range vals {
			vals[i] = uint32(i)
		}
		lc.Params[0] = m.AllocU32(vals)
		lc.Params[1] = m.Alloc(8 * 128 * 4)
	})
	if res.Stats.L1Accesses < 8*4*32 {
		t.Fatalf("L1 accesses = %d, want >= %d", res.Stats.L1Accesses, 8*4*32)
	}
}

func TestCompressionRatioOnSimilarValues(t *testing.T) {
	src := `
	mov r1, %tid.x
	iadd r2, r1, $0          // base + lane: 3-byte similar
	shl r3, r2, 2
	and r4, r3, 4095
	iadd r5, r4, 1
	exit
`
	res := runSrc(t, sm.RVCOnly(), src, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
		lc.Params[0] = 0x00300000
	})
	if res.Stats.CompressionRatio() < 1.5 {
		t.Fatalf("compression ratio = %.2f on similar values", res.Stats.CompressionRatio())
	}
}

func TestManyCTAsOnOneSM(t *testing.T) {
	// More CTAs than resident slots: the dispatcher must stream them.
	prog, err := asm.Assemble(`
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	iadd r4, $0, r3
	stg [r4], r2
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	const ctas = 64
	out := mem.Alloc(ctas * 64 * 4)
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: ctas, Y: 1}, Block: kernel.Dim{X: 64, Y: 1}}
	lc.Params[0] = out
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.MaxCycles = 5_000_000
	if _, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem); err != nil {
		t.Fatal(err)
	}
	got := mem.ReadU32(out, ctas*64)
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		return runSrc(t, sm.GScalar(), uniformChain, func(m *kernel.Memory, lc *kernel.LaunchConfig) {
			lc.Params[0] = 16
		})
	}
	a, b := run(), run()
	if a.Stats.Cycles != b.Stats.Cycles || a.Power.EnergyJ != b.Power.EnergyJ || a.Stats.WarpInsts != b.Stats.WarpInsts {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}
