package sm

import (
	"fmt"
	"math/bits"

	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/power"
	"gscalar/internal/regfile"
	"gscalar/internal/warp"
)

// issue runs each warp scheduler: greedy-then-oldest (GTO) selection, one
// instruction per scheduler per cycle. The front end can therefore issue up
// to Schedulers instructions per cycle, matching §4.1's observation that it
// bounds the benefit of extra scalar pipelines.
func (s *SM) issue() {
	for sched := 0; sched < s.cfg.Schedulers; sched++ {
		s.issueFrom(sched)
	}
}

// issueFrom tries to issue one instruction from scheduler sched's warps.
// GTO walks the scheduler's pre-sorted age list (schedWarps); LRR walks the
// warp slots in rotation order starting after the last issued one. Both
// visit candidates in exactly the order the previous sort-per-cycle
// implementation produced. The age list is snapshotted into a reusable
// scratch buffer first because tryIssueWarp can retire warps (Peek
// exhaustion), which edits the list mid-walk.
func (s *SM) issueFrom(sched int) {
	last := s.lastIssued[sched]
	if s.cfg.Sched == SchedGTO && last >= 0 && s.tryIssueWarp(sched, last) {
		// Greedy: stick with the last warp while it can issue.
		return
	}
	if s.cfg.Sched == SchedLRR {
		n := len(s.warps)
		for d := 0; d < n; d++ {
			wi := (last + 1 + d) % n
			if wi%s.cfg.Schedulers != sched {
				continue
			}
			if s.tryIssueWarp(sched, wi) {
				return
			}
		}
		return
	}
	cands := append(s.candScratch[:0], s.schedWarps[sched]...)
	s.candScratch = cands[:0]
	for _, wi := range cands {
		if wi == last {
			continue
		}
		if s.tryIssueWarp(sched, wi) {
			return
		}
	}
}

// tryIssueWarp attempts to issue the next instruction of warp slot wi.
func (s *SM) tryIssueWarp(sched, wi int) bool {
	wc := &s.warps[wi]
	if !wc.valid || wc.done || wc.scoreStalled {
		return false
	}
	if wc.w.Status() != warp.StatusReady {
		return false
	}
	pc, in, active, ok := wc.w.Peek(&wc.ctx)
	if !ok {
		s.retireWarp(wi)
		return false
	}

	// Scoreboard: no bypassing — sources, destination and guard must not be
	// pending (RAW/WAW). The stall state can only change when one of this
	// warp's own writebacks lands, so the warp leaves the ready set until
	// completeEvent clears the flag (IssueStallScoreboard therefore counts
	// stall episodes, not stalled warp-cycles).
	if s.hazard(wc, in) {
		s.st.IssueStallScoreboard++
		wc.scoreStalled = true
		s.markUnready(wi)
		return false
	}

	m := s.prog.Meta(pc)
	isCtrl := m.FrontEnd

	var free int
	if !isCtrl {
		free = s.freeCollector()
		if free < 0 {
			s.st.IssueStallOC++
			return false
		}
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
				s.lastIssued[sched] = wi
				return true
			}
		}
	}

	// Figure 1 oracle: value-uniformity of divergent instructions' sources,
	// sampled before execution (sources may alias the destination).
	divergentOracle := false
	if active != wc.w.LiveMask && !isCtrl {
		divergentOracle = core.ValueScalarOracle(in, active, wc.regVec)
	}

	// Scalar-eligibility detection uses only EBR/BVR metadata, which is
	// updated at writeback, so detecting before execution matches hardware.
	elig := core.NotEligible
	srfScalar := false
	switch s.arch.Scalar {
	case ScalarGS:
		if !isCtrl {
			elig = wc.meta.Detect(in, active, s.arch.F)
		}
	case ScalarPriorRF:
		if !isCtrl {
			srfScalar = wc.srf.Detect(in, active)
		}
	}
	predUniform := false
	if m.WritesPred && s.arch.RVC == RVCByteWise {
		predUniform = wc.meta.SourcesScalarForPred(in, active)
	}

	if !isCtrl {
		// Address generation writes into the collector's resident scratch
		// so memory instructions allocate no per-access address vector.
		wc.ctx.AddrScratch = s.collectors[free].addrBuf
	}
	out, err := wc.w.Execute(&wc.ctx)
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
	if s.arch.Scalar == ScalarGS {
		s.st.CountEligibility(elig, m.Class)
	} else if srfScalar {
		s.st.EligFullALU++
	}

	if out.Exited {
		s.retireWarp(wi)
	} else if out.AtBarrier {
		s.ctas[wc.ctaSlot].arrived++
		s.markUnready(wi)
		s.barrierCheck = true
	}
	if isCtrl {
		// Branches, barriers, exits complete in the front end.
		s.lastIssued[sched] = wi
		return true
	}

	// Allocate the operand collector with the source-read plan, and mark
	// the destination pending.
	ce := &s.collectors[free]
	reads := ce.reads[:0]
	addrBuf := ce.addrBuf
	lines := ce.lines[:0]
	*ce = collectorEntry{
		valid: true, wi: wi, out: out, elig: elig,
		srfScalar: srfScalar, predUniform: predUniform,
		class: m.Class, latency: m.Latency, occMul: m.OccMul,
		reads: reads, addrBuf: addrBuf, lines: lines,
	}
	s.collClaim(free)
	s.liveCollectors++
	s.planReads(ce, wc, in, out)
	if m.WritesReg {
		wc.pendRegs |= 1 << m.DstReg
	}
	if m.WritesPred {
		wc.pendPreds |= 1 << m.DstPred
	}
	s.lastIssued[sched] = wi
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

// freeCollector returns the lowest-index free operand collector, or -1. The
// first 64 entries are found by a trailing-zero count on the free bitmask;
// larger configurations fall back to scanning the tail, preserving the
// lowest-index-first allocation order bit-identity depends on.
func (s *SM) freeCollector() int {
	if s.collFree != 0 {
		return bits.TrailingZeros64(s.collFree)
	}
	for i := 64; i < len(s.collectors); i++ {
		if !s.collectors[i].valid {
			return i
		}
	}
	return -1
}

// collClaim/collRelease maintain the collector free bitmask as entries become
// valid and are dispatched.
func (s *SM) collClaim(i int) {
	if i < 64 {
		s.collFree &^= uint64(1) << i
	}
}

func (s *SM) collRelease(i int) {
	if i < 64 {
		s.collFree |= uint64(1) << i
	}
}

// injectMove issues the special decompressing register-to-register move of
// §3.3 into collector slot free: it reads the compressed register, expands
// it and writes it back uncompressed, ignoring the active mask.
func (s *SM) injectMove(free, wi int, reg uint8) {
	wc := &s.warps[wi]
	s.meter.Add(power.CompFrontEnd, s.en.FrontEndPerInst)
	s.st.InjectedMoves++

	ce := &s.collectors[free]
	reads := ce.reads[:0]
	addrBuf := ce.addrBuf
	lines := ce.lines[:0]
	*ce = collectorEntry{
		valid: true, wi: wi, isMove: true, moveReg: reg,
		occMul: 1, reads: reads, addrBuf: addrBuf, lines: lines,
	}
	ce.out.DstReg = int(reg)
	ce.out.Active = wc.w.LiveMask
	s.collClaim(free)
	s.liveCollectors++

	rc := wc.meta.OnRead(int(reg), wc.w.LiveMask, s.arch.F, false)
	ce.reads = append(ce.reads,
		regfile.ReadAccess(reg, wc.w.GlobalID, s.cfg.NumBanks, rc, s.en))
	wc.pendRegs |= 1 << reg
}

// planReads builds the source-read plan and records Figure 8 access
// classes.
func (s *SM) planReads(ce *collectorEntry, wc *warpCtx, in *isa.Instruction, out warp.Outcome) {
	for i := uint8(0); i < in.NSrc; i++ {
		src := in.Srcs[i]
		if src.Kind != isa.OpdReg {
			continue
		}
		s.meter.Add(power.CompOperandCollector, s.en.OCPerOperand)
		var r regfile.Access
		switch {
		case s.arch.RVC == RVCByteWise:
			rc := wc.meta.OnRead(int(src.Reg), out.Active, s.arch.F, out.Divergent)
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
