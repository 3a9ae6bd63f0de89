package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
	"gscalar/internal/warp"
)

// genKernel builds a random structured kernel: arithmetic on a handful of
// registers, data-dependent guarded branches (forward only, so termination
// is guaranteed), a bounded loop, and a final store of every live register
// so the differential comparison observes the full architectural state.
func genKernel(rng *rand.Rand) string {
	src := "\tmov r1, %tid.x\n\timad r2, %ctaid.x, %ntid.x, r1\n"
	src += "\tmov r3, 1\n\tmov r4, 2\n\tmov r5, 3\n"
	nBlocks := 2 + rng.Intn(4)
	for b := 0; b < nBlocks; b++ {
		// A few arithmetic ops mixing uniform and per-lane values.
		for i := 0; i < 2+rng.Intn(4); i++ {
			dst := 3 + rng.Intn(3)
			a := 1 + rng.Intn(5)
			c := 1 + rng.Intn(5)
			op := []string{"iadd", "isub", "imul", "and", "or", "xor", "imin", "imax"}[rng.Intn(8)]
			src += fmt.Sprintf("\t%s r%d, r%d, r%d\n", op, dst, a, c)
		}
		// A data-dependent forward branch over the next chunk.
		cc := []string{"lt", "ge", "eq", "ne"}[rng.Intn(4)]
		src += fmt.Sprintf("\tand r6, r%d, 7\n", 3+rng.Intn(3))
		src += fmt.Sprintf("\tisetp.%s p0, r6, %d\n", cc, rng.Intn(8))
		src += fmt.Sprintf("\t@p0 bra B%d\n", b)
		src += fmt.Sprintf("\tiadd r%d, r%d, %d\n", 3+rng.Intn(3), 3+rng.Intn(3), rng.Intn(100))
		src += fmt.Sprintf("B%d:\n", b)
	}
	// A small divergent loop: trip count depends on the lane.
	src += "\tand r7, r1, 3\n\tmov r8, 0\nLOOP:\n"
	src += "\tiadd r8, r8, 1\n\tiadd r3, r3, r8\n"
	src += "\tisetp.le p1, r8, r7\n\t@p1 bra LOOP\n"
	// Store r3..r5 to distinct slots.
	src += "\tshl r9, r2, 4\n"
	for i, r := range []int{3, 4, 5} {
		src += fmt.Sprintf("\tiadd r10, $0, r9\n\tstg [r10+%d], r%d\n", i*4, r)
	}
	src += "\texit\n"
	return src
}

// TestRandomKernelDifferential cross-checks the timed simulator against the
// functional golden model on randomly generated structured kernels, across
// every architecture (the architecture overlays must never change
// functional behaviour) and every chip-loop schedule (neither may the
// schedule), and checks that the schedules execute the same instructions.
func TestRandomKernelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential run")
	}
	rng := rand.New(rand.NewSource(42))
	archs := []sm.Arch{sm.Baseline(), sm.PriorScalarRF(), sm.WarpedCompression(), sm.GScalar(), sm.GScalarCompilerAssist()}
	schedules := []struct {
		name                 string
		workers, epochCycles int
	}{
		{"serial", 0, 0},
		{"phased", 2, 0},
		{"relaxed", 2, 64},
	}
	for trial := 0; trial < 25; trial++ {
		src := genKernel(rng)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		const threads = 4 * 96 // includes tail warps
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

		for _, arch := range archs {
			var serialInsts uint64
			for _, sc := range schedules {
				mT := kernel.NewMemory()
				lT := lc(mT)
				cfg := DefaultConfig()
				cfg.NumSMs = 2
				cfg.MaxCycles = 5_000_000
				cfg.Workers = sc.workers
				cfg.EpochCycles = sc.epochCycles
				res, err := Run(cfg, arch, prog, lT, mT)
				if err != nil {
					t.Fatalf("trial %d %s (%+v): %v\n%s", trial, sc.name, arch, err, src)
				}
				if res.ExecMode != sc.name {
					t.Fatalf("trial %d: %s run executed as %s", trial, sc.name, res.ExecMode)
				}
				got := mT.ReadU32(lT.Params[0], threads*4)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d %s (%+v): mem[%d] = %d, want %d\n%s",
							trial, sc.name, arch, i, got[i], want[i], src)
					}
				}
				if sc.name == "serial" {
					serialInsts = res.Stats.WarpInsts
				} else if res.Stats.WarpInsts != serialInsts {
					t.Fatalf("trial %d %s (%+v): WarpInsts = %d, serial ran %d\n%s",
						trial, sc.name, arch, res.Stats.WarpInsts, serialInsts, src)
				}
			}
		}
	}
}
