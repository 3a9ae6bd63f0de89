package gpu

import (
	"context"
	"math"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
	"gscalar/internal/warp"
)

const saxpySrc = `
.kernel saxpy
	mov   r1, %tid.x
	mov   r2, %ctaid.x
	mov   r3, %ntid.x
	imad  r4, r2, r3, r1      // gid
	isetp.ge p0, r4, $3       // gid >= n?
	@p0 exit
	shl   r5, r4, 2
	iadd  r6, $0, r5          // &x[gid]
	iadd  r7, $1, r5          // &y[gid]
	ldg   r8, [r6]
	ldg   r9, [r7]
	ffma  r10, r8, $2, r9     // a*x + y
	stg   [r7], r10
	exit
`

func buildSaxpy(t *testing.T, n int) (*kernel.Program, *kernel.LaunchConfig, *kernel.Memory, []float32) {
	t.Helper()
	prog, err := asm.Assemble(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i) * 0.5
		ys[i] = float32(n - i)
	}
	xb := mem.AllocF32(xs)
	yb := mem.AllocF32(ys)
	const a = float32(2.5)
	lc := &kernel.LaunchConfig{
		Grid:  kernel.Dim{X: (n + 127) / 128, Y: 1},
		Block: kernel.Dim{X: 128, Y: 1},
	}
	lc.Params[0] = xb
	lc.Params[1] = yb
	lc.Params[2] = math.Float32bits(a)
	lc.Params[3] = uint32(n)

	want := make([]float32, n)
	for i := range want {
		want[i] = a*xs[i] + ys[i]
	}
	return prog, lc, mem, want
}

func checkSaxpy(t *testing.T, mem *kernel.Memory, lc *kernel.LaunchConfig, want []float32) {
	t.Helper()
	got := mem.ReadF32(lc.Params[1], len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSaxpyFunctional(t *testing.T) {
	prog, lc, mem, want := buildSaxpy(t, 1000)
	if _, err := warp.FuncRun(prog, lc, mem, 32, 0); err != nil {
		t.Fatal(err)
	}
	checkSaxpy(t, mem, lc, want)
}

// TestSaxpyTimedAllArchs runs the timed simulator under every architecture
// and checks both functional correctness and basic sanity of the results.
func TestSaxpyTimedAllArchs(t *testing.T) {
	archs := map[string]sm.Arch{
		"baseline":      sm.Baseline(),
		"scalarRF":      sm.PriorScalarRF(),
		"wc":            sm.WarpedCompression(),
		"rvc":           sm.RVCOnly(),
		"gscalar":       sm.GScalar(),
		"gscalar-nodiv": sm.GScalarNoDiv(),
	}
	for name, arch := range archs {
		t.Run(name, func(t *testing.T) {
			prog, lc, mem, want := buildSaxpy(t, 1000)
			cfg := DefaultConfig()
			cfg.NumSMs = 2
			res, err := RunContext(context.Background(), cfg, arch, prog, lc, mem)
			if err != nil {
				t.Fatal(err)
			}
			checkSaxpy(t, mem, lc, want)
			if res.Cycles == 0 || res.Stats.WarpInsts == 0 {
				t.Fatalf("empty result: %+v", res)
			}
			if res.IPC <= 0 {
				t.Fatalf("IPC = %v", res.IPC)
			}
			if res.Power.AvgPowerW <= 0 {
				t.Fatalf("power = %v", res.Power.AvgPowerW)
			}
			t.Logf("%s: cycles=%d warpinsts=%d IPC=%.3f P=%.1fW IPC/W=%.4f",
				name, res.Cycles, res.Stats.WarpInsts, res.IPC, res.Power.AvgPowerW, res.IPCPerW)
		})
	}
}

// TestTimedMatchesFunctional cross-checks the timed simulator against the
// functional golden model on a divergent kernel.
func TestTimedMatchesFunctional(t *testing.T) {
	src := `
.kernel divsum
	mov   r1, %tid.x
	mov   r2, %ctaid.x
	imad  r3, r2, %ntid.x, r1
	shl   r4, r3, 2
	iadd  r5, $0, r4
	ldg   r6, [r5]
	and   r7, r3, 1
	isetp.eq p0, r7, 0
	@p0 bra EVEN
	imul  r6, r6, 3
	bra JOIN
EVEN:
	iadd  r6, r6, 100
JOIN:
	stg   [r5], r6
	exit
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	build := func() (*kernel.Memory, *kernel.LaunchConfig) {
		m := kernel.NewMemory()
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(i * 7)
		}
		base := m.AllocU32(vals)
		lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
		lc.Params[0] = base
		return m, lc
	}

	mf, lcf := build()
	if _, err := warp.FuncRun(prog, lcf, mf, 32, 0); err != nil {
		t.Fatal(err)
	}
	mt, lct := build()
	cfg := DefaultConfig()
	cfg.NumSMs = 3
	if _, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lct, mt); err != nil {
		t.Fatal(err)
	}
	got := mt.ReadU32(lct.Params[0], n)
	want := mf.ReadU32(lcf.Params[0], n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mem[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
