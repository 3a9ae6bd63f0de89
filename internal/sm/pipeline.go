package sm

import (
	"math/bits"

	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/regfile"
	"gscalar/internal/warp"
)

// serveCollectors arbitrates register-bank ports among operand collectors
// and dispatches entries whose operands are complete to the execution
// units, in collector-index order. Each bank serves one main-array access
// and one BVR/EBR access per cycle (§4.1: the BVR arrays effectively provide
// 16 banks for scalar values); the Gilani baseline's scalar bank serves a
// single access per cycle SM-wide (the burst bottleneck). Parked collectors
// hold no pending reads, so skipping them frees no bank port.
func (s *SM) serveCollectors() {
	s.rf.NewCycle()

	// Wake the unit classes whose first unit frees this cycle: their
	// collectors retry in collector-index order with the rest. Snapshot
	// both parked sets first: a collector that parks during the walk has
	// paid for this cycle through its own attempt.
	var unitParked uint64
	for c := range s.unitParked {
		if s.unitWake[c] <= s.now {
			s.unitParked[c] = 0
		}
		unitParked |= s.unitParked[c]
	}
	parked, parkedLanes := s.parked, s.parkedLanes
	memFree := s.unitBusy[s.unitMem()] <= s.now
	memTaker := len(s.collectors) // the collector that took the memory unit, if any
	for m := s.collAll &^ s.collFree &^ parked &^ unitParked; m != 0; m &= m - 1 {
		ci := bits.TrailingZeros64(m)
		ce := &s.collectors[ci]
		remaining := ce.reads[:0]
		for _, r := range ce.reads {
			if !s.serveRead(r) {
				remaining = append(remaining, r)
			}
		}
		ce.reads = remaining
		if len(ce.reads) > 0 {
			continue
		}
		// A dispatch holds its unit for at least one cycle, so at most one
		// collector takes the memory unit per cycle.
		if s.dispatch(ci) == s.unitMem() {
			memTaker = ci
		}
	}
	// A unit-parked collector's attempt fails before address generation.
	s.st.IssueStallUnit += uint64(bits.OnesCount64(unitParked))
	if parked != 0 {
		s.chargeParked(parked, parkedLanes, memFree, memTaker)
	}
}

// chargeParked charges this cycle's skipped attempts of the parked
// collectors exactly what dispatch would have charged them. Each attempt
// counts one IssueStallUnit. An attempt that found the memory unit free went
// on to generate its addresses before failing on the full MSHR file, so it
// also deposited its AGU lanes; the unit was free for a parked collector if
// it was free at the start of the cycle and no lower-index collector took
// it. The lanes go in one deposit: CompLSU only ever receives AGU charges of
// lanes × AGUPerLane, an integer number of picojoules, so every partial sum
// is an integer below 2^53 and float64 addition is exact in any grouping.
// The charge is made every cycle rather than in bulk at wake-up because
// telemetry samples the meter and the stall counters mid-run.
func (s *SM) chargeParked(parked uint64, lanes int, memFree bool, memTaker int) {
	s.st.IssueStallUnit += uint64(bits.OnesCount64(parked))
	if !memFree {
		return
	}
	if below := parked & (uint64(1)<<memTaker - 1); below != parked {
		lanes = 0
		for m := below; m != 0; m &= m - 1 {
			lanes += s.collectors[bits.TrailingZeros64(m)].lanes
		}
	}
	if lanes > 0 {
		s.meter.AddN(power.CompLSU, lanes, s.en.AGUPerLane)
	}
}

// serveRead attempts one register read this cycle; it reports whether the
// read was served and deposits its energy if so.
func (s *SM) serveRead(r regfile.Access) bool {
	if !s.rf.TryServe(r.Bank, r.Port) {
		if r.Port == regfile.PortScalarBank {
			s.st.ScalarBankConflicts++
		}
		return false
	}
	if r.Port == regfile.PortScalarBank {
		s.meter.Add(power.CompRFScalarBank, r.ArrayPJ)
	} else {
		s.meter.Add(power.CompRFArray, r.ArrayPJ)
	}
	if r.BVRPJ > 0 {
		s.meter.Add(power.CompRFBVR, r.BVRPJ)
	}
	s.meter.AddN(power.CompRFCrossbar, r.XbarBytes, s.en.RFCrossbarByte)
	if r.Decompress {
		s.meter.Add(power.CompCodec, s.en.DecompressorUse)
	}
	return true
}

// scalarLanes returns how many execution lanes the instruction activates.
func (ce *collectorEntry) scalarLanes(width int) int {
	switch {
	case ce.isMove:
		return 0 // the move is a register-file operation, not a lane op
	case ce.elig == core.EligibleFull, ce.elig == core.EligibleDivergent:
		return 1
	case ce.elig == core.EligibleHalf:
		return core.Groups(width)
	}
	return warp.PopCount(ce.active)
}

// unitClass returns the class of unit the entry dispatches to.
func (ce *collectorEntry) unitClass() int {
	switch {
	case ce.isMove:
		return unitALU
	case ce.class == isa.ClassSFU:
		return unitSFU
	case ce.class == isa.ClassMem:
		return unitMEM
	}
	return unitALU
}

// occupancy returns how many cycles the instruction holds its unit's
// dispatch port: a warp is fed over ceil(warpSize/width) cycles, and
// unpipelined iterative divides block longer (the multiplier is decoded
// once into the collector's occMul). Scalar execution does NOT shorten the
// occupancy: G-Scalar clock-gates all but one lane of the existing dispatch
// slots (§4.1), trading energy — not throughput — which is why the paper
// reports a small net IPC *loss* (the +3-cycle latency) rather than a
// speedup.
func (s *SM) occupancy(ce *collectorEntry, unitWidth int) uint64 {
	occ := uint64((s.cfg.WarpSize + unitWidth - 1) / unitWidth)
	return occ * uint64(ce.occMul)
}

// dispatch sends a completed collector entry to its execution unit and
// returns the unit it took, or -1 when the entry has to wait: every unit of
// its class is busy, or its global load does not fit the MSHR file. Either
// way it parks. Nothing is built or timed for an attempt that fails.
func (s *SM) dispatch(ci int) int {
	ce := &s.collectors[ci]

	kind := ce.unitClass()
	lo, hi, width := s.units(kind)
	unit, wake := -1, uint64(NoEvent)
	for u := lo; u < hi; u++ {
		if s.unitBusy[u] <= s.now {
			unit = u
			break
		}
		wake = min(wake, s.unitBusy[u])
	}
	if unit < 0 {
		s.st.IssueStallUnit++
		s.unitParked[kind] |= uint64(1) << ci
		s.unitWake[kind] = wake
		return -1
	}
	isMem := kind == unitMEM
	if isMem && !s.generateAddrs(ci, ce) {
		s.st.IssueStallUnit++
		return -1
	}

	occ := s.occupancy(ce, width)
	extra := uint64(s.arch.ExtraLatency)
	s.events = append(s.events, wbEvent{
		wi: ce.wi, inst: ce.inst, active: ce.active, dstVec: ce.dstVec,
		elig: ce.elig, isMove: ce.isMove, moveReg: ce.moveReg, predUniform: ce.predUniform,
	})
	ev := &s.events[len(s.events)-1]
	if isMem {
		ev.done, ev.mshrs = s.dispatchMem(ce, occ, extra)
	} else {
		ev.done = s.now + occ + uint64(basePipeDepth) + uint64(ce.latency) + extra
		s.execEnergy(ce, ce.class)
	}

	s.unitBusy[unit] = s.now + occ
	if ev.done < s.nextWb {
		s.nextWb = ev.done
	}
	s.collRelease(ci)
	return unit
}

// execEnergy deposits the execution-lane energy of a non-memory
// instruction. Per-lane clock gating means only active lanes consume; a
// scalar execution activates one lane (two for half-warp scalar).
func (s *SM) execEnergy(ce *collectorEntry, class isa.Class) {
	if ce.isMove || ce.inst == nil {
		return
	}
	comp := power.CompExecALU
	e := s.en.LaneInt
	switch {
	case class == isa.ClassSFU:
		comp, e = power.CompExecSFU, s.en.LaneSFU
	case isFloatOp(ce.inst.Op):
		e = s.en.LaneFP
	case ce.inst.Op == isa.OpIDiv || ce.inst.Op == isa.OpIRem:
		e = s.en.LaneDiv
	}
	s.meter.AddN(comp, ce.lanes, e)
}

func isFloatOp(op isa.Opcode) bool {
	return op >= isa.OpFAdd && op <= isa.OpF2I
}

// beyondTx is one deferred L2/DRAM transaction: the core cycle it issued
// at, the 128-byte line, the direction, and the index in s.events of the
// load writeback whose completion time Commit fixes up. ev is -1 for stores
// and for relaxed-mode loads, which already complete on an estimate. A
// per-cycle ev stays valid until the next processWritebacks, which cannot
// run before Commit (commit ends the same cycle).
type beyondTx struct {
	cycle uint64
	line  uint32
	write bool
	ev    int
}

// generateAddrs is a memory instruction's dispatch attempt on a free memory
// unit: address generation, then, for a global load, the MSHR check. It
// reports whether the access can proceed; a load that does not fit the MSHR
// file parks collector ci until a writeback releases MSHRs.
func (s *SM) generateAddrs(ci int, ce *collectorEntry) bool {
	// Address generation: one AGU lane per active lane; scalar memory
	// instructions compute a single address (§5.2).
	s.meter.AddN(power.CompLSU, ce.lanes, s.en.AGUPerLane)

	in := ce.inst
	if !in.IsGlobalMem() {
		return true
	}
	// The line list is computed on the first attempt and cached in the
	// collector entry; dispatch retries (unit busy, MSHRs full) reuse it, so
	// a long stall does not re-coalesce the same addresses every cycle.
	if len(ce.lines) == 0 {
		ce.lines = mem.CoalesceInto(ce.lines, ce.addrBuf, ce.active)
	}
	// A request larger than the whole MSHR file (possible with wide warps
	// and fully-diverged gathers) must still make progress: it dispatches
	// once the file has drained.
	if in.IsLoad() && s.outstanding > 0 && s.outstanding+len(ce.lines) > s.cfg.MaxMSHRs {
		s.parked |= uint64(1) << ci
		s.parkedLanes += ce.lanes
		return false
	}
	return true
}

// dispatchMem models the memory pipeline past address generation and
// coalescing: L1 and the shared L2/DRAM system. It returns the completion
// cycle and the number of MSHRs held (for loads). Beyond-L1 transactions
// never touch the shared memory system here: they are appended to s.beyond
// for Commit to apply. In per-cycle mode a load's returned done is a lower
// bound that Commit raises once L2/DRAM timing is known; in relaxed mode
// loads complete on an estimate.
func (s *SM) dispatchMem(ce *collectorEntry, occ, extra uint64) (done uint64, mshrs int) {
	in := ce.inst
	t := s.msys.Timing()
	if !in.IsGlobalMem() {
		s.meter.Add(power.CompSharedMem, s.en.SharedAccess)
		return s.now + occ + uint64(t.SharedLatency) + extra, 0
	}

	txs := ce.lines
	isLoad := in.IsLoad()
	latest := s.now + occ
	for _, line := range txs {
		s.st.L1Accesses++
		s.meter.Add(power.CompL1, s.en.L1Access)
		var txDone uint64
		if isLoad {
			if hit, fill := s.l1.Lookup(line, true); hit {
				txDone = s.now + occ + uint64(t.L1HitLatency)
				// MSHR merging: the line may still be in flight from the
				// miss that allocated it; the merged access waits for the
				// fill.
				if fill > txDone {
					txDone = fill
					s.st.MSHRMerges++
				}
			} else {
				s.st.L1Misses++
				if !s.relaxed {
					// Commit raises the completion of this instruction's
					// writeback event, the one dispatch just appended.
					s.beyond = append(s.beyond, beyondTx{cycle: s.now, line: line, ev: len(s.events) - 1})
					continue
				}
				// Epoch mode: the shared system is frozen until the
				// rendezvous, so take an estimated completion time now and
				// defer the real transaction. Stats/energy for the beyond-L1
				// part are accounted at commit.
				txDone = s.msys.EstimateAccess(s.now, line)
				s.beyond = append(s.beyond, beyondTx{cycle: s.now, line: line, ev: -1})
				s.l1.SetFill(line, txDone)
			}
		} else {
			// Write-through, write-evict: the store drains towards DRAM in
			// the background; the warp does not wait on it.
			s.l1.Invalidate(line)
			s.beyond = append(s.beyond, beyondTx{cycle: s.now, line: line, write: true, ev: -1})
			txDone = s.now + occ + 1
		}
		if txDone > latest {
			latest = txDone
		}
	}
	if isLoad {
		s.outstanding += len(txs)
		mshrs = len(txs)
	}
	return latest + extra, mshrs
}

// Commit applies the SM's deferred accesses to shared chip state: beyond-L1
// transactions to the L2/DRAM system, then buffered global stores to device
// memory. The chip loop calls it for each SM serially in ascending SM-id
// order — after every Cycle in per-cycle mode, after every RunEpoch in
// relaxed mode — which pins down L2 state transitions and DRAM channel
// arbitration regardless of how many workers stepped the SMs.
//
// Each transaction runs at its recorded issue cycle, in issue order. The
// per-cycle schedules commit right after the cycle that recorded the
// transactions, so that is the cycle just stepped, and a load's completion
// time raises the writeback event it belongs to. Relaxed-mode completion times are not fed back: the SM already ran
// ahead on estimates, and the commit only evolves the shared state
// deterministically for the next epoch.
func (s *SM) Commit() {
	if len(s.beyond) > 0 {
		raised := false
		for _, tx := range s.beyond {
			done, kind := s.msys.AccessL2(tx.cycle, tx.line, tx.write)
			s.accountBeyondL1(kind)
			if tx.ev < 0 {
				continue
			}
			s.l1.SetFill(tx.line, done)
			ev := &s.events[tx.ev]
			if d := done + uint64(s.arch.ExtraLatency); d > ev.done {
				ev.done = d
				raised = true
			}
		}
		s.beyond = s.beyond[:0]
		if raised {
			s.recomputeNextWb()
		}
	}
	if s.storeBuf.Len() > 0 {
		s.storeBuf.Flush(s.gmem)
	}
}

// accountBeyondL1 charges the statistics and energy of one L2/DRAM
// transaction by how deep it went.
func (s *SM) accountBeyondL1(kind mem.AccessKind) {
	s.st.L2Accesses++
	s.meter.AddN(power.CompNoC, mem.LineSize, s.en.NoCPerByte)
	s.meter.Add(power.CompL2, s.en.L2Access)
	if kind == mem.AccessDRAM {
		s.st.L2Misses++
		s.st.DRAMTransactions++
		s.meter.AddN(power.CompDRAM, mem.LineSize, s.en.DRAMPerByte)
	}
}

// recomputeNextWb re-derives the earliest pending writeback time after
// event completion times changed or events were removed.
func (s *SM) recomputeNextWb() {
	next := uint64(NoEvent)
	for i := range s.events {
		if s.events[i].done < next {
			next = s.events[i].done
		}
	}
	s.nextWb = next
}

// processWritebacks retires events whose completion cycle has arrived:
// scoreboard release, register-file write energy, and compression-metadata
// update (the hardware's compressor stage). The caller (Cycle) skips it
// entirely until nextWb, so the scan below runs only on cycles that
// actually retire something.
func (s *SM) processWritebacks() {
	// Remove completed events from the list BEFORE handling them:
	// completeEvent consults hasInFlight (via maybeRecycle), which must not
	// see the event that is currently being retired.
	done := s.wbScratch[:0]
	kept := 0
	next := uint64(NoEvent)
	for i := range s.events {
		ev := &s.events[i]
		if ev.done > s.now {
			if ev.done < next {
				next = ev.done
			}
			if kept != i {
				s.events[kept] = *ev
			}
			kept++
		} else {
			done = append(done, *ev)
		}
	}
	s.events = s.events[:kept]
	s.nextWb = next
	s.wbScratch = done
	for i := range done {
		s.completeEvent(&done[i])
	}
}

func (s *SM) completeEvent(ev *wbEvent) {
	wc := &s.warps[ev.wi]

	if ev.mshrs > 0 {
		s.outstanding -= ev.mshrs
		// Released MSHRs may fit a parked load: wake every parked
		// collector to retry in index order this cycle.
		s.parked, s.parkedLanes = 0, 0
	}

	if ev.isMove {
		// The special move writes the register back uncompressed.
		full := core.Groups(s.cfg.WarpSize) * core.WordBytes
		s.meter.AddN(power.CompRFArray, full, s.en.RFArrayAccess)
		s.meter.AddN(power.CompRFCrossbar, full*16, s.en.RFCrossbarByte)
		s.meter.Add(power.CompRFBVR, s.en.RFBVRAccess)
		wc.meta.DecompressInPlace(int(ev.moveReg))
		wc.pendRegs &^= 1 << ev.moveReg
		s.markReady(ev.wi)
		s.maybeRecycle(ev.wi)
		return
	}

	if in := ev.inst; in != nil {
		if dst, w := in.WritesReg(); w {
			s.writebackReg(wc, ev, dst)
			wc.pendRegs &^= 1 << dst
		}
		if p, w := in.WritesPred(); w {
			if s.arch.RVC == RVCByteWise {
				wc.meta.OnPredWrite(int(p), ev.active, ev.predUniform)
			}
			wc.pendPreds &^= 1 << p
		}
	}
	s.markReady(ev.wi)
	s.maybeRecycle(ev.wi)
}

// writebackReg applies the architecture's register-write energy and
// metadata update.
func (s *SM) writebackReg(wc *warpCtx, ev *wbEvent, dst uint8) {
	vec := ev.dstVec
	active := ev.active
	switch {
	case s.arch.RVC == RVCByteWise:
		wb := wc.meta.OnWrite(int(dst), vec, active, s.arch.F, ev.elig == core.EligibleFull)
		s.meter.AddN(power.CompRFArray, wb.ArraysWritten, s.en.RFArrayAccess)
		s.meter.AddN(power.CompRFCrossbar, wb.ArraysWritten*16, s.en.RFCrossbarByte)
		s.meter.Add(power.CompRFBVR, s.en.RFBVRAccess)
		s.meter.Add(power.CompCodec, s.en.CompressorUse)
		s.st.CompressedBits += uint64(wb.CompressedBits)
		s.st.OriginalBits += uint64(wb.OriginalBits)

	case s.arch.RVC == RVCBDI:
		r := wc.bdi.OnWrite(int(dst), vec, active, wc.w.LiveMask)
		arrays := (r.SizeBytes + 15) / 16
		s.meter.AddN(power.CompRFArray, arrays, s.en.RFArrayAccess)
		s.meter.AddN(power.CompRFCrossbar, r.SizeBytes, s.en.RFCrossbarByte)
		s.meter.Add(power.CompCodec, s.en.BDICodecUse)
		s.st.CompressedBits += uint64(r.SizeBytes * 8)
		s.st.OriginalBits += uint64(s.cfg.WarpSize * core.WordBits)

	case s.arch.Scalar == ScalarPriorRF:
		wc.srf.OnWrite(int(dst), vec, active)
		if wc.srf.IsScalarReg(int(dst)) {
			s.meter.Add(power.CompRFScalarBank, s.en.RFScalarBankAccess)
		} else {
			s.baselineWrite(wc, active)
		}

	default:
		s.baselineWrite(wc, active)
	}
}

// baselineWrite accounts a write to the unmodified register file.
func (s *SM) baselineWrite(wc *warpCtx, active warp.Mask) {
	arrays := regfile.BaselineWriteArrays(active, wc.w.LiveMask, s.cfg.WarpSize)
	s.meter.AddN(power.CompRFArray, arrays, s.en.RFArrayAccess)
	s.meter.AddN(power.CompRFCrossbar, arrays*16, s.en.RFCrossbarByte)
}

// maybeRecycle frees a warp slot whose CTA finished while this event was in
// flight.
func (s *SM) maybeRecycle(wi int) {
	wc := &s.warps[wi]
	if wc.freeWhenDrained && !s.hasInFlight(wi) {
		wc.valid = false
		wc.freeWhenDrained = false
	}
}
