package gpu

import (
	"context"
	"math"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
)

// TestDivergentSaturateKernel reproduces the examples/divergence kernel at
// small scale with a cycle bound, guarding against scheduler deadlocks or
// pathological slowdowns with mixed-path warps.
func TestDivergentSaturateKernel(t *testing.T) {
	src := `
.kernel clamp_scale
	mov   r1, %tid.x
	imad  r2, %ctaid.x, %ntid.x, r1
	shl   r3, r2, 2
	iadd  r4, $0, r3
	ldg   r5, [r4]
	mov   r6, $1
	mov   r7, $2
	fsetp.gt p0, r5, r6
	@p0 bra SATURATE
	fmul  r8, r5, r7
	ffma  r8, r5, 0.125, r8
	bra STORE
SATURATE:
	fmul  r8, r6, r7
	fadd  r8, r8, r6
	fmul  r9, r8, 0.5
	ffma  r8, r9, 0.25, r8
STORE:
	stg   [r4], r8
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2048
	for _, arch := range []sm.Arch{sm.Baseline(), sm.PriorScalarRF(), sm.GScalar()} {
		mem := kernel.NewMemory()
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(i%100) * 0.02
		}
		vb := mem.AllocF32(vals)
		lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: n / 256, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
		lc.Params[0] = vb
		lc.Params[1] = math.Float32bits(1.0)
		lc.Params[2] = math.Float32bits(3.0)

		cfg := DefaultConfig()
		cfg.NumSMs = 4
		cfg.MaxCycles = 200_000 // a hang shows up as exceeding this
		res, err := RunContext(context.Background(), cfg, arch, prog, lc, mem)
		if err != nil {
			t.Fatalf("arch %+v: %v", arch, err)
		}
		if res.Cycles > 50_000 {
			t.Errorf("suspiciously slow: %d cycles for %d warps", res.Cycles, n/32)
		}
	}
}

// TestWarpSize64 runs a small kernel with 64-wide warps (the Figure 10
// configuration) under a strict cycle bound.
func TestWarpSize64(t *testing.T) {
	src := `
	mov r1, %tid.x
	shl r2, r1, 2
	iadd r3, $0, r2
	ldg r4, [r3]
	iadd r4, r4, 7
	mov r5, 0
LOOP:
	imul r6, r4, 3
	iadd r5, r5, r6
	isetp.lt p0, r5, 1000
	@p0 bra LOOP
	stg [r3], r5
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	vals := make([]uint32, 1024)
	for i := range vals {
		vals[i] = uint32(i % 50)
	}
	vb := mem.AllocU32(vals)
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
	lc.Params[0] = vb

	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.WarpSize = 64
	cfg.MaxWarpsPerSM = 24
	cfg.MaxCycles = 500_000
	if _, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem); err != nil {
		t.Fatal(err)
	}
}
