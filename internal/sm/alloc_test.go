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

// gatherSrc is an uncoalesced gather: each lane loads its own 128-byte
// line, so every warp load needs 32 MSHRs of the 48 and at most one is in
// flight. Run with more warps than collectors, the other warps' loads wait
// in their collectors, parked on the full MSHR file, and the warps behind
// them find no free collector.
const gatherSrc = `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 7
	iadd r4, $0, r3
	mov r5, 0
A:
	ldg r6, [r4]
	iadd r5, r5, 1
	isetp.lt p0, r5, 2000
	@p0 bra A
	exit
`

// cycleInputs are the steady states the cycle gate and BenchmarkSMCycle
// run: ipc issues most cycles, stall waits most cycles. In both,
// collectors park on busy units.
var cycleInputs = []struct {
	name  string
	src   string
	ctas  int  // 128-thread CTAs, four warps each
	parks bool // collectors must park on the MSHR file while measuring
}{
	{"ipc", loopSrc, 4, false},
	{"stall", gatherSrc, 8, true},
}

// policies are the warp-scheduling policies the cycle gates run under.
var policies = []struct {
	name  string
	sched SchedPolicy
}{{"gto", SchedGTO}, {"lrr", SchedLRR}}

// warmupCycles steps a fresh SM past the growth of its reusable scratch
// slices (writeback and coalesce buffers) and the backing
// memory pages.
const warmupCycles = 3000

// warmSM launches ctas 128-thread CTAs of src on one G-Scalar SM of config
// cfg and steps it through the warm-up. It returns the SM and the next
// cycle to step.
func warmSM(tb testing.TB, cfg Config, src string, ctas int) (*SM, uint64) {
	tb.Helper()
	const threads = 128
	gmem := kernel.NewMemory()
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: ctas, Y: 1}, Block: kernel.Dim{X: threads, Y: 1}}
	lc.Params[0] = gmem.Alloc(ctas * threads * 128) // one line per thread
	s, _ := newTestSM(tb, cfg, src, lc, gmem, GScalar())
	for cta := 0; cta < ctas; cta++ {
		if !s.CanTakeCTA() {
			tb.Fatalf("SM refused CTA %d", cta)
		}
		s.LaunchCTA(cta)
	}
	cycle := uint64(0)
	for ; cycle < warmupCycles; cycle++ {
		s.Cycle(cycle)
		s.Commit()
	}
	if err := s.Err(); err != nil {
		tb.Fatal(err)
	}
	if !s.Busy() {
		tb.Fatal("kernel drained during warm-up; lengthen the loop")
	}
	return s, cycle
}

// TestCycleSteadyStateZeroAlloc pins down the hot-path property the
// event-driven rework relies on: once warm, SM.Cycle performs zero heap
// allocations per cycle, and neither does the Commit that follows it, on
// the issuing path (collectors parked on busy units) and on the stalled
// path (collectors parked on the MSHR file, starved warps), under both
// scheduling policies. A regression here silently turns the simulator's
// inner loop back into a GC benchmark. testing.AllocsPerRun integer-divides
// by the run count, so the gate measures a single run of a whole batch of
// cycles: one allocation anywhere in the batch shows.
func TestCycleSteadyStateZeroAlloc(t *testing.T) {
	for _, in := range cycleInputs {
		t.Run(in.name, func(t *testing.T) {
			for _, pol := range policies {
				t.Run(pol.name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Sched = pol.sched
					s, cycle := warmSM(t, cfg, in.src, in.ctas)

					// The last call of f is the measured one; before, after
					// and parked describe it.
					const batch = 1000
					var before, after uint64
					var parked, unitParked bool
					allocs := testing.AllocsPerRun(1, func() {
						before, parked, unitParked = s.Stats().WarpInsts, false, false
						for end := cycle + batch; cycle < end; cycle++ {
							s.Cycle(cycle)
							s.Commit()
							parked = parked || s.parked != 0
							unitParked = unitParked || s.unitParked != [numUnitClasses]uint64{}
						}
						after = s.Stats().WarpInsts
					})
					if allocs != 0 {
						t.Errorf("SM.Cycle+Commit allocates %.0f objects per %d cycles in steady state, want 0", allocs, batch)
					}
					if after == before {
						t.Fatal("no warp instruction issued while measuring; the gate did not exercise the issue path")
					}
					if in.parks && !parked {
						t.Fatal("no collector parked while measuring; the gate did not exercise the stalled path")
					}
					if !unitParked {
						t.Fatal("no collector parked on a busy unit while measuring; the gate did not exercise unit parking")
					}
					if err := s.Err(); err != nil {
						t.Fatal(err)
					}
					if !s.Busy() {
						t.Fatal("kernel drained during measurement; lengthen the loop")
					}
				})
			}
		})
	}
}

// BenchmarkSMCycle is the SM layer's own benchmark: the host cost of one
// warmed SM's Cycle+Commit under each scheduling policy, reported as
// ns/cycle. Each op is a batch of cycles; an SM whose kernel drains is
// replaced, off the clock, by a fresh warmed one. Run it with -benchmem:
// allocs/op must stay 0 on every input.
func BenchmarkSMCycle(b *testing.B) {
	const batch = 1000
	for _, in := range cycleInputs {
		b.Run(in.name, func(b *testing.B) {
			for _, pol := range policies {
				b.Run(pol.name, func(b *testing.B) {
					cfg := DefaultConfig()
					cfg.Sched = pol.sched
					s, cycle := warmSM(b, cfg, in.src, in.ctas)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if !s.Busy() {
							b.StopTimer()
							s, cycle = warmSM(b, cfg, in.src, in.ctas)
							b.StartTimer()
						}
						for end := cycle + batch; cycle < end; cycle++ {
							s.Cycle(cycle)
							s.Commit()
						}
					}
					b.StopTimer()
					if err := s.Err(); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/cycle")
				})
			}
		})
	}
}

// TestLaunchAllocsIndependentOfRegisters gates what a CTA launch allocates
// per warp: on a fresh SM of each register-file kind, launching one
// 128-thread CTA allocates as many objects for a kernel whose highest
// register is r1 as for one that writes r31, so nothing is allocated per
// register.
func TestLaunchAllocsIndependentOfRegisters(t *testing.T) {
	const r1Src = `
		mov r1, %tid.x
		exit
	`
	const r31Src = `
		mov r31, %tid.x
		exit
	`
	const runs = 10
	launchAllocs := func(t *testing.T, src string, arch Arch) float64 {
		lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
		sms := make([]*SM, runs+1) // AllocsPerRun makes one warm-up run
		for i := range sms {
			sms[i], _ = newTestSM(t, DefaultConfig(), src, lc, kernel.NewMemory(), arch)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			sms[next].LaunchCTA(0)
			next++
		})
	}
	for _, a := range []struct {
		name string
		arch Arch
	}{
		{"baseline", Baseline()},
		{"alu-scalar", PriorScalarRF()},
		{"warped-compression", WarpedCompression()},
		{"gscalar", GScalar()},
	} {
		t.Run(a.name, func(t *testing.T) {
			r1, r31 := launchAllocs(t, r1Src, a.arch), launchAllocs(t, r31Src, a.arch)
			if r1 != r31 {
				t.Errorf("one CTA launch allocates %.0f objects for a kernel using r1 and %.0f for one writing r31, want equal", r1, r31)
			}
			t.Logf("%.0f objects per launch", r1)
		})
	}
}

// TestCTASlotKeepsWarpList: a CTA launched into a drained slot reuses the
// slot's warp list, so a streaming launch stops allocating lists once every
// slot has held a CTA.
func TestCTASlotKeepsWarpList(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCTAs = 1
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 2, Y: 1}, Block: kernel.Dim{X: 128, Y: 1}}
	s, _ := newTestSM(t, cfg, "mov r1, %tid.x\nexit\n", lc, kernel.NewMemory(), Baseline())
	s.LaunchCTA(0)
	first := &s.ctas[0].warpSlots[0]
	for cycle := uint64(0); s.Busy(); cycle++ {
		if cycle == 10_000 {
			t.Fatalf("CTA 0 did not drain: %s", s.DebugState())
		}
		s.Cycle(cycle)
		s.Commit()
	}
	if !s.CanTakeCTA() {
		t.Fatal("the drained slot does not take a CTA")
	}
	s.LaunchCTA(1)
	cs := &s.ctas[0]
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cs.warpSlots) != 4 || cs.liveWarps != 4 {
		t.Fatalf("relaunched slot lists %d warps with %d live, want 4 and 4", len(cs.warpSlots), cs.liveWarps)
	}
	if &cs.warpSlots[0] != first {
		t.Error("relaunch into a drained slot allocated a new warp list")
	}
}
