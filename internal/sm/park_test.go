package sm

import (
	"math"
	"math/bits"
	"testing"

	"gscalar/internal/kernel"
	"gscalar/internal/power"
	"gscalar/internal/warp"
)

// TestAGUEnergyIsIntegral guards the exactness of chargeParked's bulk
// deposit. CompLSU receives only AGU charges of lanes × AGUPerLane; with an
// integral AGUPerLane every partial sum is an integer below 2^53, so adding
// the parked collectors' lanes in one deposit gives the same float64 total
// as one deposit per retry, in any order. A fractional AGUPerLane would make
// the meter's low bits depend on the grouping.
func TestAGUEnergyIsIntegral(t *testing.T) {
	if e := power.DefaultEnergies().AGUPerLane; e != math.Trunc(e) {
		t.Fatalf("AGUPerLane = %v pJ is not integral; parked collectors' bulk AGU charge would not be exact", e)
	}
}

// TestParkedEntriesWouldFail checks, after every cycle of the stalled
// gather, the premise that makes skipping parked work exact: a parked
// collector's dispatch attempt would fail on the MSHR file, and a starved
// warp's issue attempt would reach the collector check with the same
// outcome. Both must also actually occur, or the test checks nothing.
func TestParkedEntriesWouldFail(t *testing.T) {
	s, cycle := warmSM(t, DefaultConfig(), gatherSrc, 8)
	var sawParked, sawStarved bool
	for end := cycle + 20000; cycle < end && s.Busy(); cycle++ {
		s.Cycle(cycle)
		s.Commit()
		for m := s.parked; m != 0; m &= m - 1 {
			sawParked = true
			ci := bits.TrailingZeros64(m)
			ce := &s.collectors[ci]
			switch {
			case s.collFree&(1<<ci) != 0:
				t.Fatalf("cycle %d: parked collector %d is not live", cycle, ci)
			case len(ce.reads) > 0:
				t.Fatalf("cycle %d: parked collector %d still reads operands", cycle, ci)
			case ce.isMove || !ce.inst.IsGlobalMem() || !ce.inst.IsLoad():
				t.Fatalf("cycle %d: parked collector %d holds no global load", cycle, ci)
			case s.outstanding == 0 || s.outstanding+len(ce.lines) <= s.cfg.MaxMSHRs:
				t.Fatalf("cycle %d: parked collector %d fits the MSHR file (%d outstanding + %d lines)",
					cycle, ci, s.outstanding, len(ce.lines))
			}
		}
		for _, sc := range s.scheds {
			for m := sc.starved; m != 0; m &= m - 1 {
				sawStarved = true
				p := bits.TrailingZeros64(m)
				wi := sc.warps[p]
				wc := &s.warps[wi]
				if sc.ready>>p&1 == 0 || wc.w.Status() != warp.StatusReady {
					t.Fatalf("cycle %d: starved warp %d is not ready", cycle, wi)
				}
				pc, in, _, ok := wc.w.Peek(&s.ctx)
				if !ok || s.hazard(wc, in) || s.prog.Meta(pc).FrontEnd {
					t.Fatalf("cycle %d: starved warp %d would not reach the collector check", cycle, wi)
				}
			}
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawParked || !sawStarved {
		t.Fatalf("parked collectors seen: %v, starved warps seen: %v; want both", sawParked, sawStarved)
	}
}

// TestIssueAndUnitParkInvariants checks, after every cycle of both steady
// states under both scheduling policies (the ipc kernel until it drains),
// what the issue walk and unit parking rely on: the scheduler lists and
// masks agree with the warps' own state (checkSchedMasks); every
// unit-parked collector is live, has no pending reads and finds every unit
// of its class busy; and no collector is parked on a unit and on the MSHR
// file at once. Unit-parked collectors must occur, or the test checks
// nothing.
func TestIssueAndUnitParkInvariants(t *testing.T) {
	for _, in := range cycleInputs {
		for _, pol := range policies {
			t.Run(in.name+"/"+pol.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Sched = pol.sched
				s, cycle := warmSM(t, cfg, in.src, in.ctas)
				unitParks := 0
				// ipc drains within the bound, so every warp also retires.
				for end := cycle + 500_000; cycle < end && s.Busy(); cycle++ {
					s.Cycle(cycle)
					s.Commit()
					checkSchedMasks(t, s, cycle)
					unitParks += checkUnitParked(t, s, cycle)
				}
				if err := s.Err(); err != nil {
					t.Fatal(err)
				}
				if unitParks == 0 {
					t.Fatal("no collector parked on a busy unit; the test checked nothing")
				}
			})
		}
	}
}

// refillSrc gives each two-warp CTA a trip count that falls with its id
// (64 - 8·(ctaid mod 8) iterations, each ending at a barrier), so CTAs
// finish out of launch order and later ones take the freed slots below
// older warps: slot order and age order part, as they do in a streaming
// launch.
const refillSrc = `
	mov r1, %ctaid.x
	and r1, r1, 7
	shl r1, r1, 3
	mov r2, 64
	isub r2, r2, r1
A:
	isub r2, r2, 1
	bar
	isetp.gt p0, r2, 0
	@p0 bra A
	exit
`

// TestSchedListsUnderRefill streams 64 two-warp CTAs through an SM under
// both policies and checks the scheduler lists and masks after every cycle
// while warps wait at barriers and slots are recycled. The slot and age
// orders of some list must part, or the test cannot tell them apart.
func TestSchedListsUnderRefill(t *testing.T) {
	const ctas = 64
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Sched = pol.sched
			lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: ctas, Y: 1}, Block: kernel.Dim{X: 64, Y: 1}}
			s, _ := newTestSM(t, cfg, refillSrc, lc, kernel.NewMemory(), GScalar())
			parted, next := false, 0
			for cycle := uint64(0); next < ctas || s.Busy(); cycle++ {
				if cycle == 1_000_000 {
					t.Fatalf("SM did not drain: %s", s.DebugState())
				}
				for next < ctas && s.CanTakeCTA() {
					s.LaunchCTA(next)
					next++
				}
				s.Cycle(cycle)
				s.Commit()
				if err := s.Err(); err != nil {
					t.Fatal(err)
				}
				checkSchedMasks(t, s, cycle)
				for _, sc := range s.scheds {
					for p := 1; p < len(sc.warps); p++ {
						a, b := sc.warps[p-1], sc.warps[p]
						parted = parted || (a < b) != (s.warps[a].w.GlobalID < s.warps[b].w.GlobalID)
					}
				}
			}
			if !parted {
				t.Fatal("no list's slot order parted from its age order; the test checked nothing")
			}
		})
	}
}

// TestFailingWarpsRetireInOneWalk starts every warp on a shared-memory load
// past the end of a launch with no shared memory. Each attempt fails,
// retires its warp and passes the turn on, so the first cycle retires every
// warp, under both policies. A walk that lost track of the positions a
// retirement shifts would skip warps or index past its list.
func TestFailingWarpsRetireInOneWalk(t *testing.T) {
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Sched = pol.sched
			lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 6, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
			s, _ := newTestSM(t, cfg, "lds r2, [r1]\nexit\n", lc, kernel.NewMemory(), GScalar())
			for cta := 0; s.CanTakeCTA(); cta++ {
				s.LaunchCTA(cta)
			}
			if n := s.LiveWarps(); n != cfg.MaxWarps {
				t.Fatalf("%d warps launched, want %d", n, cfg.MaxWarps)
			}
			s.Cycle(0)
			if s.Err() == nil {
				t.Fatal("the out-of-range load did not fail")
			}
			if n := s.LiveWarps(); n != 0 {
				t.Fatalf("%d warps still live after the failing cycle, want 0", n)
			}
		})
	}
}

// checkSchedMasks fails t unless every scheduler's list and masks agree
// with the warps' own state: the list holds exactly the scheduler's valid,
// not-done warps, at their recorded positions, in GlobalID order under GTO
// and in slot order under LRR; a ready warp is not at a barrier; a listed
// warp that is neither ready nor at a barrier has a scoreboard hazard on
// its next instruction, so leaving it out of the walk skips no attempt that
// could issue; and every starved warp is ready.
func checkSchedMasks(t *testing.T, s *SM, cycle uint64) {
	t.Helper()
	live := make([]int, len(s.scheds))
	for wi := range s.warps {
		wc := &s.warps[wi]
		if !wc.valid || wc.done {
			continue
		}
		sched := wi % s.cfg.Schedulers
		live[sched]++
		if list := s.scheds[sched].warps; wc.pos >= len(list) || list[wc.pos] != wi {
			t.Fatalf("cycle %d: live warp %d is not at its recorded position %d of scheduler %d", cycle, wi, wc.pos, sched)
		}
	}
	for sched := range s.scheds {
		sc := &s.scheds[sched]
		if len(sc.warps) != live[sched] {
			t.Fatalf("cycle %d: scheduler %d lists %d warps, has %d live", cycle, sched, len(sc.warps), live[sched])
		}
		if extra := sc.ready >> len(sc.warps); extra != 0 {
			t.Fatalf("cycle %d: scheduler %d has ready bits past its %d warps", cycle, sched, len(sc.warps))
		}
		if sc.starved&^sc.ready != 0 {
			t.Fatalf("cycle %d: scheduler %d has starved positions %#x that are not ready", cycle, sched, sc.starved&^sc.ready)
		}
		prev := -1
		for p, wi := range sc.warps {
			wc := &s.warps[wi]
			key := wi
			if s.cfg.Sched == SchedGTO {
				key = wc.w.GlobalID
			}
			if key <= prev {
				t.Fatalf("cycle %d: scheduler %d lists warp %d at position %d out of walk order", cycle, sched, wi, p)
			}
			prev = key
			status := wc.w.Status()
			switch {
			case sc.ready>>p&1 == 1:
				if status != warp.StatusReady {
					t.Fatalf("cycle %d: ready warp %d has status %d", cycle, wi, status)
				}
			case status != warp.StatusBarrier:
				if _, in, _, ok := wc.w.Peek(&s.ctx); !ok || !s.hazard(wc, in) {
					t.Fatalf("cycle %d: warp %d is neither ready nor at a barrier, and its next instruction has no hazard", cycle, wi)
				}
			}
		}
	}
}

// checkUnitParked fails t unless every unit-parked collector would fail its
// dispatch on a busy unit, and returns how many there are.
func checkUnitParked(t *testing.T, s *SM, cycle uint64) int {
	t.Helper()
	var seen uint64
	for class, set := range s.unitParked {
		if set&seen != 0 || set&s.parked != 0 {
			t.Fatalf("cycle %d: collectors %#x parked twice", cycle, set&(seen|s.parked))
		}
		seen |= set
		lo, hi, _ := s.units(class)
		for u := lo; u < hi; u++ {
			if set != 0 && s.unitBusy[u] <= s.now {
				t.Fatalf("cycle %d: class %d has collectors %#x parked but unit %d free", cycle, class, set, u)
			}
		}
		for m := set; m != 0; m &= m - 1 {
			ci := bits.TrailingZeros64(m)
			ce := &s.collectors[ci]
			switch {
			case s.collFree&(1<<ci) != 0:
				t.Fatalf("cycle %d: unit-parked collector %d is not live", cycle, ci)
			case len(ce.reads) > 0:
				t.Fatalf("cycle %d: unit-parked collector %d still reads operands", cycle, ci)
			case class != ce.unitClass():
				t.Fatalf("cycle %d: collector %d parked on class %d, dispatches to %d", cycle, ci, class, ce.unitClass())
			}
		}
	}
	return bits.OnesCount64(seen)
}
