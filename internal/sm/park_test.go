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
	s, cycle := warmSM(t, gatherSrc, 8)
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
