package sm

import (
	"testing"

	"gscalar/internal/kernel"
)

// loopSrc keeps every warp alive for thousands of cycles: a dependent
// load-modify-store chain that exercises the issue path, operand
// collectors, the L1/writeback path, and the scoreboard each iteration.
const loopSrc = `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	iadd r4, $0, r3
	mov r5, 0
A:
	ldg r6, [r4]
	iadd r6, r6, 1
	stg [r4], r6
	iadd r5, r5, 1
	isetp.lt p0, r5, 2000
	@p0 bra A
	exit
`

// TestCycleSteadyStateZeroAlloc pins down the hot-path property the
// event-driven rework relies on: once warm (scratch buffers grown, memory
// pages touched, collector ring populated), SM.Cycle performs zero heap
// allocations per cycle, and neither does the Commit that follows it. A
// regression here silently turns the simulator's inner loop back into a GC
// benchmark.
func TestCycleSteadyStateZeroAlloc(t *testing.T) {
	gmem := kernel.NewMemory()
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
	lc.Params[0] = gmem.Alloc(4 * 128 * 4)
	s, _ := newTestSM(t, loopSrc, lc, gmem, GScalar())

	for cta := 0; cta < 4; cta++ {
		if !s.CanTakeCTA() {
			t.Fatalf("SM refused CTA %d", cta)
		}
		s.LaunchCTA(cta)
	}

	// Warm-up: let the reusable scratch slices (writeback, candidate,
	// coalesce buffers), the fill list, and the backing memory pages reach
	// their steady-state capacity.
	cycle := uint64(0)
	for ; cycle < 3000; cycle++ {
		s.Cycle(cycle)
		s.Commit()
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !s.Busy() {
		t.Fatal("kernel drained during warm-up; lengthen the loop")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		s.Cycle(cycle)
		s.Commit()
		cycle++
	})
	if allocs != 0 {
		t.Errorf("SM.Cycle+Commit allocates %.2f objects/cycle in steady state, want 0", allocs)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !s.Busy() {
		t.Fatal("kernel drained during measurement; lengthen the loop")
	}
}
