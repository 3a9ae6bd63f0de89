package gpu

import (
	"context"
	"math"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/power"
	"gscalar/internal/sm"
)

// invariantKernels exercise different mixes: scalar-rich, divergent, and
// memory-heavy.
var invariantKernels = map[string]string{
	"scalar-rich": `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	mov r3, $0
	mov r4, 0
L:
	imul r5, r3, 3
	iadd r6, r5, 1
	iadd r4, r4, 1
	isetp.lt p0, r4, 16
	@p0 bra L
	shl r7, r2, 2
	iadd r8, $1, r7
	stg [r8], r6
	exit
`,
	"divergent": `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	and r3, r1, 3
	isetp.eq p0, r3, 0
	@p0 bra A
	imul r4, r1, 5
	bra J
A:
	mov r5, $0
	imul r4, r5, 7
J:
	shl r6, r2, 2
	iadd r7, $1, r6
	stg [r7], r4
	exit
`,
	"memory-heavy": `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	iadd r4, $0, r3
	ldg r5, [r4]
	iadd r6, $1, r3
	ldg r7, [r6]
	iadd r8, r5, r7
	iadd r9, $2, r3
	stg [r9], r8
	exit
`,
}

func runInvariant(t *testing.T, src string, arch sm.Arch) Result {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	const n = 8 * 128
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i * 3)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 8, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
	lc.Params[0] = mem.AllocU32(vals)
	lc.Params[1] = mem.Alloc(n * 4)
	lc.Params[2] = mem.Alloc(n * 4)
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.MaxCycles = 2_000_000
	res, err := RunContext(context.Background(), cfg, arch, prog, lc, mem)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEnergyInvariants pins the physical sanity conditions the paper's
// comparisons rest on.
func TestEnergyInvariants(t *testing.T) {
	for name, src := range invariantKernels {
		t.Run(name, func(t *testing.T) {
			base := runInvariant(t, src, sm.Baseline())
			gs := runInvariant(t, src, sm.GScalar())
			rvc := runInvariant(t, src, sm.RVCOnly())

			// Committed instruction counts are architecture-independent.
			if base.Stats.WarpInsts != gs.Stats.WarpInsts ||
				base.Stats.ThreadInsts != gs.Stats.ThreadInsts {
				t.Errorf("instruction counts differ: baseline %d/%d vs G-Scalar %d/%d",
					base.Stats.WarpInsts, base.Stats.ThreadInsts,
					gs.Stats.WarpInsts, gs.Stats.ThreadInsts)
			}

			// Energy bookkeeping is self-consistent.
			for _, r := range []Result{base, gs, rvc} {
				if math.Abs(r.Power.AvgPowerW*r.Power.Seconds-r.Power.EnergyJ) > 1e-9*r.Power.EnergyJ {
					t.Errorf("power × time != energy: %v", r.Power)
				}
				for c := power.Component(0); c < power.NumComponents; c++ {
					if r.Power.PerComp[c] < 0 {
						t.Errorf("negative power in %v", c)
					}
				}
			}

			// The compressing register file never costs more RF dynamic
			// power than the baseline RF.
			if rvc.Power.RFDynamicW() > base.Power.RFDynamicW()*1.02 {
				t.Errorf("RVC RF dynamic %.4f W exceeds baseline %.4f W",
					rvc.Power.RFDynamicW(), base.Power.RFDynamicW())
			}
			// Scalar execution never increases execution-unit energy.
			baseExec := base.Power.PerComp[power.CompExecALU] + base.Power.PerComp[power.CompExecSFU]
			gsExec := gs.Power.PerComp[power.CompExecALU] + gs.Power.PerComp[power.CompExecSFU]
			// Compare energies (power × time), not powers, since cycle
			// counts differ.
			if gsExec*gs.Power.Seconds > baseExec*base.Power.Seconds*1.001 {
				t.Errorf("G-Scalar exec energy exceeds baseline: %.4g vs %.4g J",
					gsExec*gs.Power.Seconds, baseExec*base.Power.Seconds)
			}
		})
	}
}

// TestIPCBound: chip IPC can never exceed schedulers × SMs.
func TestIPCBound(t *testing.T) {
	for name, src := range invariantKernels {
		res := runInvariant(t, src, sm.Baseline())
		limit := float64(2 * 2) // 2 schedulers × 2 SMs
		if res.Stats.IPC() > limit {
			t.Errorf("%s: IPC %.2f exceeds issue bound %.0f", name, res.Stats.IPC(), limit)
		}
	}
}
