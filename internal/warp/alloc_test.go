package warp

import (
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
)

// TestExecuteSteadyStateZeroAlloc pins down the property the SoA execution
// rework relies on: in a load/store loop's steady state, Execute performs
// zero heap allocations across ALU, predicate, memory, and branch paths,
// both with the caller's address scratch (as the SM's operand collectors
// provide it) and without one (the functional paths: warp.RunCTAs, and with
// it FuncRun and the profiler), where a memory instruction records no
// addresses. testing.AllocsPerRun integer-divides by its run count, so each
// case measures one run of a whole batch of instructions: one allocation
// anywhere in the batch shows.
func TestExecuteSteadyStateZeroAlloc(t *testing.T) {
	src := `
		mov r1, %tid.x
		shl r3, r1, 2
		iadd r4, $0, r3
		mov r5, 0
	A:
		ldg r6, [r4]
		imad r6, r6, 3, 1
		fadd r7, r6, r6
		selp r8, r6, r7, p1
		stg [r4], r6
		iadd r5, r5, 1
		isetp.lt p0, r5, 1000000
		@p0 bra A
		exit
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		scratch []uint32
	}{{"collector-scratch", make([]uint32, 32)}, {"functional", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			gmem := kernel.NewMemory()
			lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
			lc.Params[0] = gmem.Alloc(32 * 4)

			w := New(0, 0, 0, 32, prog.NumRegs, FullMask(32))
			for lane := 0; lane < 32; lane++ {
				w.SetThreadCoords(lane, uint32(lane), 0)
			}
			ctx := &Context{Prog: prog, Launch: lc, Global: gmem, AddrScratch: tc.scratch}

			// Warm-up: touch the memory pages and reach the loop's steady
			// state.
			for i := 0; i < 100; i++ {
				if _, err := w.Execute(ctx); err != nil {
					t.Fatal(err)
				}
			}

			const batch = 1000
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < batch; i++ {
					if _, err := w.Execute(ctx); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("warp.Execute allocates %.0f objects per %d instructions in steady state, want 0", allocs, batch)
			}
			if w.Status() != StatusReady {
				t.Fatal("kernel drained during measurement; lengthen the loop")
			}
		})
	}
}
