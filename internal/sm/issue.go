package sm

import (
	"fmt"
	"math/bits"
	"slices"

	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/power"
	"gscalar/internal/regfile"
	"gscalar/internal/warp"
)

// issue runs each warp scheduler that has a ready warp, one instruction per
// scheduler per cycle. The front end can therefore issue up to Schedulers
// instructions per cycle, matching §4.1's observation that it bounds the
// benefit of extra scalar pipelines.
func (s *SM) issue() {
	for i := range s.scheds {
		if sc := &s.scheds[i]; sc.ready != 0 {
			s.issueFrom(sc)
		}
	}
}

// issueFrom tries to issue one instruction from scheduler sc's warps. It
// walks the ready positions of the scheduler's list once, from a start
// position round to the one before it. Greedy-then-oldest (GTO) first
// retries the warp that issued last, then walks its age-ordered list from
// position 0. Loose round-robin (LRR) walks its slot-ordered list from the
// first slot after the one that issued last, which is the order in which a
// rotation over all warp slots would reach the ready ones: a warp that is
// not ready fails its attempt without side effects, so the walk skips it.
// While no collector is free, a starved warp's attempt only counts an
// IssueStallOC (the collector set cannot change before a warp issues), so
// the walk skips starved positions too and counts the ones it would have
// tried before the first warp that issues. The masks are rotated so that
// walk order is bit order. An attempt can retire the warp it tries, which
// shifts the positions after it down by one, so the walk runs over the
// positions it started with and subtracts from each the retirements below
// it.
func (s *SM) issueFrom(sc *scheduler) {
	last, start := sc.last, 0
	var tried uint64 // the position of GTO's greedy attempt
	if s.cfg.Sched == SchedLRR {
		start, _ = slices.BinarySearch(sc.warps, last+1)
	} else if last >= 0 {
		if s.tryIssueWarp(sc, last) {
			// Greedy: stick with the last warp while it can issue.
			return
		}
		if lw := &s.warps[last]; lw.valid && !lw.done {
			tried = uint64(1) << lw.pos
		}
	}
	cands, starved := sc.ready&^tried, uint64(0)
	if s.collFree == 0 {
		starved = cands & sc.starved
		cands &^= starved
	}
	cands = bits.RotateLeft64(cands, -start)
	starved = bits.RotateLeft64(starved, -start)
	var gone uint64 // positions whose warps retired during the walk
	for m := cands; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		p := (r + start) & 63
		wi := sc.warps[p-bits.OnesCount64(gone&(uint64(1)<<p-1))]
		if s.tryIssueWarp(sc, wi) {
			starved &= uint64(1)<<r - 1
			break
		}
		if s.warps[wi].done {
			gone |= uint64(1) << p
		}
	}
	s.st.IssueStallOC += uint64(bits.OnesCount64(starved))
}

// tryIssueWarp attempts to issue the next instruction of warp slot wi, one
// of scheduler sc's.
func (s *SM) tryIssueWarp(sc *scheduler, wi int) bool {
	wc := &s.warps[wi]
	if !wc.valid || wc.done {
		return false
	}
	bit := uint64(1) << wc.pos
	if sc.ready&bit == 0 {
		return false
	}
	if sc.starved&bit != 0 {
		if s.collFree == 0 {
			s.st.IssueStallOC++
			return false
		}
		sc.starved &^= bit
	}
	pc, in, active, ok := wc.w.Peek(&s.ctx)
	if !ok {
		s.retireWarp(wi)
		return false
	}

	// Scoreboard: no bypassing — sources, destination and guard must not be
	// pending (RAW/WAW). The stall state can only change when one of this
	// warp's own writebacks lands, so the warp leaves the ready set until
	// completeEvent sets its bit again (IssueStallScoreboard therefore
	// counts stall episodes, not stalled warp-cycles).
	if s.hazard(wc, in) {
		s.st.IssueStallScoreboard++
		sc.ready &^= bit
		return false
	}

	m := s.prog.Meta(pc)
	isCtrl := m.FrontEnd

	var free int
	if !isCtrl {
		if s.collFree == 0 {
			s.st.IssueStallOC++
			sc.starved |= bit
			return false
		}
		free = bits.TrailingZeros64(s.collFree)
	}

	// §3.3: a divergent write to a compressed register must first be
	// decompressed by an injected special move — unless the compiler-
	// assisted analysis proved the register's previous value dead.
	if s.arch.RVC == RVCByteWise {
		if m.WritesReg && active != wc.w.LiveMask &&
			wc.meta.NeedsDecompressMove(int(m.DstReg), s.arch.F) {
			if s.deadOnWrite != nil && s.deadOnWrite[pc] {
				// Elided: the stale inactive-lane bytes are unobservable;
				// the divergent write lands uncompressed without a
				// read-modify-write.
				wc.meta.DecompressInPlace(int(m.DstReg))
				s.st.MovesElided++
			} else {
				s.injectMove(free, wi, m.DstReg)
				sc.last = wi
				return true
			}
		}
	}

	// Figure 1 oracle: value-uniformity of divergent instructions' sources,
	// sampled before execution (sources may alias the destination).
	divergentOracle := false
	if active != wc.w.LiveMask && !isCtrl {
		divergentOracle = core.ValueScalarOracle(in, active, wc.w)
	}

	// Scalar-eligibility detection uses only EBR/BVR metadata, which is
	// updated at writeback, so detecting before execution matches hardware.
	// The prior scalar RF executes only non-divergent ALU instructions
	// scalar, so its eligibility is full-scalar or none.
	elig := core.NotEligible
	if !isCtrl {
		switch s.arch.Scalar {
		case ScalarGS:
			elig = wc.meta.Detect(in, active, s.arch.F)
		case ScalarPriorRF:
			if wc.srf.Detect(in, active) {
				elig = core.EligibleFull
			}
		}
	}
	predUniform := false
	if m.WritesPred && s.arch.RVC == RVCByteWise {
		predUniform = wc.meta.SourcesScalarForPred(in, active)
	}

	s.ctx.Shared = s.ctas[wc.ctaSlot].shared
	if !isCtrl {
		// Address generation writes into the collector's resident scratch
		// so memory instructions allocate no per-access address vector.
		s.ctx.AddrScratch = s.collectors[free].addrBuf
	}
	out, err := wc.w.Execute(&s.ctx)
	if err != nil {
		s.fail(fmt.Errorf("sm%d warp %d: %w", s.ID, wc.w.GlobalID, err))
		s.retireWarp(wi)
		return false
	}

	// Statistics and front-end energy.
	s.meter.Add(power.CompFrontEnd, s.en.FrontEndPerInst)
	s.st.CountInst(m.Class, warp.PopCount(out.Active), out.Divergent)
	if out.Divergent && !isCtrl && divergentOracle {
		s.st.DivergentValueScalar++
	}
	s.st.CountEligibility(elig, m.Class)

	if out.Exited {
		s.retireWarp(wi)
	} else if out.AtBarrier {
		s.ctas[wc.ctaSlot].arrived++
		sc.ready &^= bit
		s.barrierCheck = true
	}
	if isCtrl {
		// Branches, barriers, exits complete in the front end.
		sc.last = wi
		return true
	}

	// Allocate the operand collector with the source-read plan, and mark
	// the destination pending.
	ce := &s.collectors[free]
	*ce = collectorEntry{
		wi: wi, inst: in, active: out.Active, dstVec: out.DstVec,
		elig: elig, predUniform: predUniform,
		class: m.Class, latency: m.Latency, occMul: m.OccMul,
		reads: ce.reads[:0], addrBuf: ce.addrBuf, lines: ce.lines[:0],
	}
	ce.lanes = ce.scalarLanes(s.cfg.WarpSize)
	s.collClaim(free)
	s.planReads(ce, wc, in, out.Divergent)
	if m.WritesReg {
		wc.pendRegs |= 1 << m.DstReg
	}
	if m.WritesPred {
		wc.pendPreds |= 1 << m.DstPred
	}
	sc.last = wi
	return true
}

// hazard reports whether the instruction has a scoreboard conflict.
func (s *SM) hazard(wc *warpCtx, in *isa.Instruction) bool {
	if in.Guard.On && wc.pendPreds&(1<<in.Guard.Reg) != 0 {
		return true
	}
	for i := uint8(0); i < in.NSrc; i++ {
		src := in.Srcs[i]
		switch src.Kind {
		case isa.OpdReg:
			if wc.pendRegs&(1<<src.Reg) != 0 {
				return true
			}
		case isa.OpdPred:
			if wc.pendPreds&(1<<src.Reg) != 0 {
				return true
			}
		}
	}
	if dst, w := in.WritesReg(); w && wc.pendRegs&(1<<dst) != 0 {
		return true
	}
	if p, w := in.WritesPred(); w && wc.pendPreds&(1<<p) != 0 {
		return true
	}
	return false
}

// collClaim/collRelease maintain the collector free bitmask as entries are
// issued and dispatched. Issue always claims the lowest free index, the
// allocation order bit-identity depends on.
func (s *SM) collClaim(i int) { s.collFree &^= uint64(1) << i }

func (s *SM) collRelease(i int) { s.collFree |= uint64(1) << i }

// injectMove issues the special decompressing register-to-register move of
// §3.3 into collector slot free: it reads the compressed register, expands
// it and writes it back uncompressed, ignoring the active mask.
func (s *SM) injectMove(free, wi int, reg uint8) {
	wc := &s.warps[wi]
	s.meter.Add(power.CompFrontEnd, s.en.FrontEndPerInst)
	s.st.InjectedMoves++

	ce := &s.collectors[free]
	*ce = collectorEntry{
		wi: wi, active: wc.w.LiveMask, isMove: true, moveReg: reg,
		occMul: 1, reads: ce.reads[:0], addrBuf: ce.addrBuf, lines: ce.lines[:0],
	}
	s.collClaim(free)

	rc := wc.meta.OnRead(int(reg), wc.w.LiveMask, s.arch.F, false)
	ce.reads = append(ce.reads,
		regfile.ReadAccess(reg, wc.w.GlobalID, s.cfg.NumBanks, rc, s.en))
	wc.pendRegs |= 1 << reg
}

// planReads builds the source-read plan of collector ce, which holds in,
// and records Figure 8 access classes.
func (s *SM) planReads(ce *collectorEntry, wc *warpCtx, in *isa.Instruction, divergent bool) {
	for i := uint8(0); i < in.NSrc; i++ {
		src := in.Srcs[i]
		if src.Kind != isa.OpdReg {
			continue
		}
		s.meter.Add(power.CompOperandCollector, s.en.OCPerOperand)
		var r regfile.Access
		switch {
		case s.arch.RVC == RVCByteWise:
			rc := wc.meta.OnRead(int(src.Reg), ce.active, s.arch.F, divergent)
			s.st.RFReads[rc.Class]++
			r = regfile.ReadAccess(src.Reg, wc.w.GlobalID, s.cfg.NumBanks, rc, s.en)
		case s.arch.RVC == RVCBDI:
			r = regfile.BDIReadAccess(src.Reg, wc.w.GlobalID, s.cfg.NumBanks,
				wc.bdi.ReadBytes(int(src.Reg)), s.en)
		case s.arch.Scalar == ScalarPriorRF && wc.srf.IsScalarReg(int(src.Reg)):
			r = regfile.ScalarBankAccess(s.en)
		default: // baseline register file
			r = regfile.BaselineReadAccess(src.Reg, wc.w.GlobalID, s.cfg.NumBanks,
				s.cfg.WarpSize, s.en)
		}
		ce.reads = append(ce.reads, r)
	}
}
