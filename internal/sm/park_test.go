package sm

import (
	"math"
	"math/bits"
	"testing"

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
			case ce.isMove || !ce.out.Inst.IsGlobalMem() || !ce.out.Inst.IsLoad():
				t.Fatalf("cycle %d: parked collector %d holds no global load", cycle, ci)
			case s.outstanding == 0 || s.outstanding+len(ce.lines) <= s.cfg.MaxMSHRs:
				t.Fatalf("cycle %d: parked collector %d fits the MSHR file (%d outstanding + %d lines)",
					cycle, ci, s.outstanding, len(ce.lines))
			}
		}
		for wi := range s.warps {
			wc := &s.warps[wi]
			if !wc.valid || wc.done || !wc.ocStarved {
				continue
			}
			sawStarved = true
			if wc.scoreStalled || wc.w.Status() != warp.StatusReady {
				t.Fatalf("cycle %d: starved warp %d is not ready", cycle, wi)
			}
			pc, in, _, ok := wc.w.Peek(&wc.ctx)
			if !ok || s.hazard(wc, in) || s.prog.Meta(pc).FrontEnd {
				t.Fatalf("cycle %d: starved warp %d would not reach the collector check", cycle, wi)
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
// what the issue walk and unit parking rely on: each scheduler's ready and
// starved masks mirror the flags of the warp at each position of its age
// list, and the recorded positions are those of the list; every
// unit-parked collector is live, has no pending reads and finds every unit
// of its class busy; and no collector is parked on a unit and on the MSHR
// file at once. Unit-parked collectors must occur, or the test checks
// nothing.
func TestIssueAndUnitParkInvariants(t *testing.T) {
	for _, in := range cycleInputs {
		for _, pol := range []struct {
			name  string
			sched SchedPolicy
		}{{"gto", SchedGTO}, {"lrr", SchedLRR}} {
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

// checkSchedMasks fails t unless every scheduler's masks and positions
// mirror its warps.
func checkSchedMasks(t *testing.T, s *SM, cycle uint64) {
	t.Helper()
	listed, ready := 0, 0
	for sched := range s.scheds {
		sc := &s.scheds[sched]
		listed += len(sc.warps)
		ready += bits.OnesCount64(sc.ready)
		if extra := (sc.ready | sc.starved) >> len(sc.warps); extra != 0 {
			t.Fatalf("cycle %d: scheduler %d has mask bits past its %d warps", cycle, sched, len(sc.warps))
		}
		for p, wi := range sc.warps {
			wc := &s.warps[wi]
			switch {
			case wi%s.cfg.Schedulers != sched || !wc.valid || wc.done:
				t.Fatalf("cycle %d: scheduler %d lists warp slot %d, which is not its live warp", cycle, sched, wi)
			case wc.pos != p:
				t.Fatalf("cycle %d: warp %d recorded at position %d, listed at %d", cycle, wi, wc.pos, p)
			case (sc.ready>>p&1 == 1) != wc.ready:
				t.Fatalf("cycle %d: scheduler %d ready bit %d disagrees with warp %d (ready %v)", cycle, sched, p, wi, wc.ready)
			case (sc.starved>>p&1 == 1) != wc.ocStarved:
				t.Fatalf("cycle %d: scheduler %d starved bit %d disagrees with warp %d (starved %v)", cycle, sched, p, wi, wc.ocStarved)
			}
		}
	}
	if listed != s.liveWarps || ready != s.readyWarps {
		t.Fatalf("cycle %d: schedulers list %d warps (%d ready), SM counts %d (%d ready)",
			cycle, listed, ready, s.liveWarps, s.readyWarps)
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
