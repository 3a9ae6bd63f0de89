package sm

import (
	"fmt"
	"math/bits"

	"gscalar/internal/asm"
	"gscalar/internal/baseline"
	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/kernel"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/regfile"
	"gscalar/internal/stats"
	"gscalar/internal/warp"
)

// basePipeDepth is the issue-to-writeback overhead of the baseline pipeline
// in cycles, on top of the per-opcode execution latency.
const basePipeDepth = 6

// NoEvent is returned by NextEventCycle when the SM is idle and places no
// constraint on how far a relaxed epoch's start may move.
const NoEvent = ^uint64(0)

// collectorEntry is one operand collector: an issued instruction gathering
// its source operands. It holds the writeback event dispatch schedules (the
// instruction, nil for an injected move, its active lanes, its destination
// vector and what writeback records), with done and mshrs left for dispatch
// to set. class/latency/occMul are copied from the program's per-PC
// metadata at issue so dispatch never re-decodes the instruction, and lanes
// (the execution lanes it activates, which is also its AGU lane count) is
// fixed at issue too. addrBuf is the collector's resident address scratch
// and holds the instruction's per-lane addresses: the warp's
// address-generation stage writes into it via Context.AddrScratch, and it
// stays valid until dispatch coalesces it. lines is the entry's resident
// coalesced-transaction buffer, empty until the first dispatch attempt
// coalesces the addresses, so retry cycles — unit busy, MSHRs full — do not
// re-coalesce the access. An entry is live while its bit in SM.collFree is
// clear.
type collectorEntry struct {
	wbEvent
	class   isa.Class
	latency uint16
	occMul  uint8
	lanes   int
	reads   []regfile.Access
	addrBuf []uint32
	lines   []uint32
}

// wbEvent is a scheduled completion (writeback) of a dispatched instruction.
// It holds only what writeback reads, so compacting the event list copies
// little.
type wbEvent struct {
	done        uint64
	wi          int
	inst        *isa.Instruction
	active      warp.Mask
	dstVec      []uint32
	mshrs       int // outstanding-load transactions to release
	elig        core.Eligibility
	isMove      bool
	moveReg     uint8
	predUniform bool
}

// ctaSlot tracks one CTA; the slot is resident while liveWarps > 0.
// arrived counts its live warps currently waiting at bar.sync, maintained
// incrementally at barrier arrival and release so the per-cycle release
// check is a comparison, not a scan. warpSlots keeps its backing array
// across launches into the slot.
type ctaSlot struct {
	shared    []uint32
	warpSlots []int
	liveWarps int
	arrived   int
}

// warpCtx bundles a warp with its per-architecture register state: the
// compression metadata (meta) of the byte-wise register file, the prior
// scalar-RF comparator's scalar tracking (srf) or the BDI comparator's
// compressed sizes (bdi), nil unless the architecture has that register file.
type warpCtx struct {
	valid     bool
	done      bool
	w         *warp.Warp
	meta      *core.WarpRegs
	srf       *baseline.ScalarRF
	bdi       *baseline.BDIRegFile
	pendRegs  uint64
	pendPreds uint8
	ctaSlot   int
	// freeWhenDrained marks a slot whose CTA finished while writebacks were
	// still in flight; the slot index is reused only once they drain, since
	// events and collectors name their warp by slot.
	freeWhenDrained bool
	// pos is the warp's position in its scheduler's list while it is valid
	// and not done; that bit of the scheduler's masks is its issue state.
	pos int
}

// scheduler is one warp scheduler's issue state, and the only record of
// which of its warps might issue. warps lists its valid, not-done warp slots
// in the order the issue walk visits them: ascending GlobalID (the age
// order) under GTO, ascending slot under LRR. ready and starved are masks
// over positions in warps (Config validation caps a scheduler's warps at
// 64), which launch and retirement shift with the list:
//   - ready: the warp might issue. A warp leaves it at a barrier arrival and
//     on a scoreboard (RAW/WAW) hazard. The hazard depends only on the warp's
//     pending registers and its next instruction, so it can only clear when
//     one of the warp's own writebacks lands; each writeback, and barrier
//     release, sets the bit again, and the next attempt re-checks. A warp
//     that is not ready fails its attempt without side effects, so the issue
//     walk visits only ready positions.
//   - starved: the warp's next instruction passed the scoreboard and was
//     turned away for want of a free operand collector. Only the warp's own
//     issue moves its PC or its masks, and writebacks only clear pending
//     registers, so until it issues the same instruction would pass the
//     same checks: while no collector is free, the walk counts the stall
//     without decoding it again. Starved warps are ready.
//
// last is the warp slot that issued last, or -1.
type scheduler struct {
	warps   []int
	ready   uint64
	starved uint64
	last    int
}

// Unit classes: the kinds of execution unit a collector dispatches to.
const (
	unitALU        = iota // the ALU pipelines, which also run §3.3's moves
	unitMEM               // the memory pipeline
	unitSFU               // the special-function pipeline
	numUnitClasses        // array length
)

// SM is one streaming multiprocessor.
type SM struct {
	ID   int
	cfg  Config
	arch Arch
	en   power.Energies

	prog   *kernel.Program
	launch *kernel.LaunchConfig
	gmem   *kernel.Memory
	msys   *mem.System
	l1     *mem.Cache
	meter  *power.Meter
	st     stats.Sim
	// ctx is the launch context every warp executes in. Issue points its
	// Shared at the issuing warp's CTA and its AddrScratch at the
	// collector the instruction takes.
	ctx warp.Context

	warps      []warpCtx
	ctas       []ctaSlot
	collectors []collectorEntry
	// Collector sets are 64-bit masks over collector indices (Config
	// validation caps the count at 64). collAll has a bit per collector;
	// collFree marks the free ones, so allocation is a trailing-zero count
	// and the live set is collAll &^ collFree.
	collAll  uint64
	collFree uint64
	// parked marks live collectors whose global load found the MSHR file
	// full. The file only drains when a writeback releases MSHRs, so until
	// then every retry would fail the same way: serveCollectors skips them,
	// completeEvent wakes them all, and chargeParked bills each cycle what
	// their attempts would have cost. parkedLanes is the sum of their lanes.
	parked      uint64
	parkedLanes int
	// unitParked[c] marks live collectors, operands gathered, that found
	// every unit of class c busy. Only a dispatch sets unitBusy, and nothing
	// dispatches to a class while all its units are busy, so every retry
	// before unitWake[c], the class's earliest unitBusy, would fail the
	// same way: serveCollectors skips them, charges each one IssueStallUnit
	// per cycle, and wakes the whole class at unitWake[c].
	unitParked [numUnitClasses]uint64
	unitWake   [numUnitClasses]uint64
	// Unit indices: 0..ALUUnits-1 are ALU pipelines, then MEM, then SFU.
	unitBusy [ALUUnits + 2]uint64
	events   []wbEvent

	// Cycle never touches shared chip state: global stores land in storeBuf
	// and beyond-L1 transactions are deferred into beyond, and Commit
	// applies both. The chip loop calls Commit serially, in ascending SM-id
	// order across the chip, so shared state evolves identically for any
	// worker count. beyond is reused across commits, so deferral allocates
	// nothing in steady state.
	beyond   []beyondTx
	storeBuf *kernel.StoreBuffer

	// Relaxed (epoch) mode: dispatchMem estimates beyond-L1 completion times
	// against the frozen shared memory system (mem.System.EstimateAccess),
	// and Commit applies the deferred transactions at the epoch rendezvous.
	relaxed bool

	outstanding int
	deadOnWrite []bool // §3.3 compiler-assisted elision table
	now         uint64

	barrierCheck bool // a barrier arrival/retire may have released a CTA
	// nextWb caches min(events[i].done) (NoEvent when none) so writeback
	// processing — and NextEventCycle — needs no scan.
	nextWb uint64

	wbScratch []wbEvent // processWritebacks reuse

	scheds []scheduler

	rf *regfile.File // per-cycle bank/port arbitration

	err error
}

// New constructs an SM.
func New(id int, cfg Config, arch Arch, en power.Energies, prog *kernel.Program,
	launch *kernel.LaunchConfig, gmem *kernel.Memory, msys *mem.System, meter *power.Meter) *SM {
	s := &SM{
		ID:     id,
		cfg:    cfg,
		arch:   arch,
		en:     en,
		prog:   prog,
		launch: launch,
		gmem:   gmem,
		msys:   msys,
		l1:     mem.NewCache(cfg.L1Bytes, L1Assoc),
		meter:  meter,
		nextWb: NoEvent,
	}
	// Assembled programs arrive with the per-PC decode cache built; hand-
	// constructed ones get it here. New always runs before any concurrent
	// step, so this is safe for the parallel schedules too.
	prog.BuildMeta()
	s.storeBuf = &kernel.StoreBuffer{}
	s.ctx = warp.Context{Prog: prog, Launch: launch, Global: gmem, StoreBuf: s.storeBuf}
	s.warps = make([]warpCtx, cfg.MaxWarpsPerSM)
	s.ctas = make([]ctaSlot, cfg.MaxCTAsPerSM)
	s.collectors = make([]collectorEntry, cfg.CollectorsPerSM)
	for i := range s.collectors {
		s.collectors[i].addrBuf = make([]uint32, cfg.WarpSize)
	}
	s.collAll = (uint64(1) << cfg.CollectorsPerSM) - 1 // all ones at 64
	s.collFree = s.collAll
	s.scheds = make([]scheduler, cfg.SchedulersPerSM)
	for i := range s.scheds {
		s.scheds[i].last = -1
	}
	s.rf = regfile.New(cfg.RegFileBanks)
	if arch.CompilerMoveElision && arch.RVC == RVCByteWise {
		s.deadOnWrite = asm.DeadOnWrite(prog)
	}
	return s
}

// EnableRelaxed switches the SM into relaxed epoch mode for epoch-parallel
// simulation: Cycle runs against a frozen shared memory system (estimated
// beyond-L1 latencies, deferred transactions, buffered global stores with a
// read-through overlay for same-SM visibility), and the caller runs whole
// epochs (RunEpoch) between Commit calls. Must be called before the first
// LaunchCTA.
func (s *SM) EnableRelaxed() {
	s.relaxed = true
	s.storeBuf.EnableOverlay()
}

// RunEpoch advances the SM from cycle start up to (but not including) end,
// skipping idle stretches locally via the NextEventCycle contract, and
// returns the SM's stop cycle: one past the last cycle it actually stepped
// (start if it stepped none). The chip loop takes the max stop cycle of the
// final epoch as the run's cycle count, so epoch rounding never inflates it.
// A deadlocked SM (NextEventCycle refuses to skip with no events pending)
// steps its cheap no-op cycles one by one, so the chip-level MaxCycles bound
// trips exactly as it would cycle by cycle.
func (s *SM) RunEpoch(start, end uint64) uint64 {
	stop := start
	for c := start; c < end; {
		if s.err != nil {
			return stop
		}
		if next, ok := s.NextEventCycle(); ok {
			if next >= end { // covers NoEvent
				return stop
			}
			if next > c {
				c = next
			}
		}
		s.Cycle(c)
		c++
		stop = c
	}
	return stop
}

// Stats returns the SM's statistics accumulator.
func (s *SM) Stats() *stats.Sim { return &s.st }

// Retired returns the warp instructions this SM has committed so far. It is
// the chip loop's progress-observer sample: a plain counter read with no
// aggregation cost, safe to call between cycles (serially, or after the
// chip loop's worker barrier) without disturbing simulation state.
func (s *SM) Retired() uint64 { return s.st.WarpInsts }

// Err returns the first simulation error encountered, if any.
func (s *SM) Err() error { return s.err }

// memUnit is the memory pipeline's unit index.
const memUnit = ALUUnits

// units returns the unit indices [lo, hi) of class c and their lane width.
func (s *SM) units(c int) (lo, hi, width int) {
	switch c {
	case unitMEM:
		return memUnit, memUnit + 1, s.cfg.SIMTWidth
	case unitSFU:
		return memUnit + 1, memUnit + 2, SFUWidth
	}
	return 0, ALUUnits, s.cfg.SIMTWidth
}

// warpsPerCTA returns warps needed per CTA for the current launch.
func (s *SM) warpsPerCTA() int {
	return (s.launch.Block.Count() + s.cfg.WarpSize - 1) / s.cfg.WarpSize
}

// CTARegBytes returns the register-file footprint of one CTA of the
// current launch.
func (s *SM) CTARegBytes() int {
	return s.warpsPerCTA() * s.cfg.WarpSize * s.prog.NumRegs * 4
}

// residentCTAs returns the number of CTA slots holding live warps.
func (s *SM) residentCTAs() int {
	n := 0
	for i := range s.ctas {
		if s.ctas[i].liveWarps > 0 {
			n++
		}
	}
	return n
}

// CanTakeCTA reports whether a new CTA fits: a free CTA slot, enough warp
// slots, and enough register-file capacity (every resident CTA holds
// CTARegBytes).
func (s *SM) CanTakeCTA() bool {
	n := s.residentCTAs()
	if n == len(s.ctas) {
		return false
	}
	if (n+1)*s.CTARegBytes() > s.cfg.RegFileKB<<10 {
		return false
	}
	free := 0
	for i := range s.warps {
		if !s.warps[i].valid {
			free++
		}
	}
	return free >= s.warpsPerCTA()
}

// LaunchCTA instantiates CTA ctaLinear on this SM.
func (s *SM) LaunchCTA(ctaLinear int) {
	slot := -1
	for i := range s.ctas {
		if s.ctas[i].liveWarps == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		s.fail(fmt.Errorf("sm%d: LaunchCTA with no free slot", s.ID))
		return
	}
	wpc := s.warpsPerCTA()
	ws := warp.BuildCTA(s.prog, s.launch, ctaLinear, s.cfg.WarpSize, ctaLinear*wpc)
	shared := make([]uint32, (s.launch.SharedBytes+3)/4)
	cs := &s.ctas[slot]
	*cs = ctaSlot{shared: shared, warpSlots: cs.warpSlots[:0], liveWarps: len(ws)}
	for _, w := range ws {
		wi := -1
		for i := range s.warps {
			if !s.warps[i].valid {
				wi = i
				break
			}
		}
		if wi < 0 {
			s.fail(fmt.Errorf("sm%d: no free warp slot", s.ID))
			return
		}
		wc := &s.warps[wi]
		*wc = warpCtx{valid: true, w: w, ctaSlot: slot}
		switch {
		case s.arch.RVC == RVCByteWise:
			wc.meta = core.NewWarpRegs(s.prog.NumRegs, warp.NumPreds, s.cfg.WarpSize, w.LiveMask)
		case s.arch.Scalar == ScalarPriorRF:
			wc.srf = baseline.NewScalarRF(s.prog.NumRegs, s.cfg.WarpSize, w.LiveMask)
		case s.arch.RVC == RVCBDI:
			wc.bdi = baseline.NewBDIRegFile(s.prog.NumRegs, s.cfg.WarpSize)
		}
		s.schedInsert(wi)
		cs.warpSlots = append(cs.warpSlots, wi)
	}
}

// Busy reports whether the SM still has work.
func (s *SM) Busy() bool {
	return s.LiveWarps() > 0 || len(s.events) > 0
}

// NextEventCycle reports the earliest future cycle at which this SM's
// observable state can change. RunEpoch uses it to skip idle stretches
// inside an epoch, and the chip loop uses it to place the start of a
// relaxed epoch. ok is false when the SM must be stepped cycle by cycle: a
// warp is ready or an operand collector is live (progress every cycle), or
// the SM is in an error/deadlock state the cycle-by-cycle loop is
// responsible for surfacing. Otherwise the SM is stalled waiting for
// writebacks — nothing it does before nextWb can change any state — or
// fully idle, in which case it returns NoEvent and places no constraint on
// the skip target.
func (s *SM) NextEventCycle() (uint64, bool) {
	if s.err != nil || s.readyWarps() > 0 || s.collFree != s.collAll {
		return 0, false
	}
	if len(s.events) == 0 {
		if s.LiveWarps() > 0 {
			// Live warps but no ready work and no pending writebacks: a
			// barrier deadlock. Refuse to skip so the loop's MaxCycles
			// bound trips exactly as it would cycle by cycle.
			return 0, false
		}
		return NoEvent, true
	}
	return s.nextWb, true
}

func (s *SM) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// markReady sets a warp's ready bit, at a writeback (which may have
// cleared its scoreboard hazard) and at barrier release. Warps that are done
// or parked at a barrier stay unready; barrier release is the one place a
// barrier warp becomes ready again.
func (s *SM) markReady(wi int) {
	wc := &s.warps[wi]
	if wc.valid && !wc.done && wc.w.Status() == warp.StatusReady {
		s.scheds[wi%s.cfg.SchedulersPerSM].ready |= uint64(1) << wc.pos
	}
}

// schedInsert adds warp slot wi to its scheduler's list in walk order
// (walkKey), ready and not starved.
func (s *SM) schedInsert(wi int) {
	sc := &s.scheds[wi%s.cfg.SchedulersPerSM]
	pos := len(sc.warps)
	for pos > 0 && s.walkKey(sc.warps[pos-1]) > s.walkKey(wi) {
		pos--
	}
	sc.warps = append(sc.warps, 0)
	copy(sc.warps[pos+1:], sc.warps[pos:])
	sc.warps[pos] = wi
	sc.ready = insertBit(sc.ready, pos) | uint64(1)<<pos
	sc.starved = insertBit(sc.starved, pos)
	s.renumber(sc, pos)
}

// walkKey orders a scheduler's list: by GlobalID (age) under GTO, by warp
// slot under LRR.
func (s *SM) walkKey(wi int) int {
	if s.arch.Sched == SchedLRR {
		return wi
	}
	return s.warps[wi].w.GlobalID
}

// schedRemove drops warp slot wi from its scheduler's issue list and closes
// its bit in the masks.
func (s *SM) schedRemove(wi int) {
	sc := &s.scheds[wi%s.cfg.SchedulersPerSM]
	pos := s.warps[wi].pos
	sc.warps = append(sc.warps[:pos], sc.warps[pos+1:]...)
	sc.ready = removeBit(sc.ready, pos)
	sc.starved = removeBit(sc.starved, pos)
	s.renumber(sc, pos)
}

// renumber records the positions of sc's warps from position from on.
func (s *SM) renumber(sc *scheduler, from int) {
	for p := from; p < len(sc.warps); p++ {
		s.warps[sc.warps[p]].pos = p
	}
}

// insertBit opens a clear bit p in m, moving the bits at and above it up by
// one.
func insertBit(m uint64, p int) uint64 {
	low := uint64(1)<<p - 1
	return m&low | (m&^low)<<1
}

// removeBit closes bit p of m, moving the bits above it down by one.
func removeBit(m uint64, p int) uint64 {
	low := uint64(1)<<p - 1
	return m&low | (m>>1)&^low
}

// retireWarp marks a warp finished and releases its CTA when empty. Warp
// slots are only recycled once the whole CTA is done (so barrier accounting
// never sees a reused slot) and the slot's in-flight writebacks drained.
func (s *SM) retireWarp(wi int) {
	wc := &s.warps[wi]
	if wc.done {
		return
	}
	wc.done = true
	s.schedRemove(wi)
	cs := &s.ctas[wc.ctaSlot]
	cs.liveWarps--
	if cs.liveWarps == 0 {
		for _, slot := range cs.warpSlots {
			if s.hasInFlight(slot) {
				s.warps[slot].freeWhenDrained = true
			} else {
				s.warps[slot].valid = false
			}
		}
	} else {
		// The remaining warps may all be at the barrier now.
		s.barrierCheck = true
	}
}

func (s *SM) hasInFlight(wi int) bool {
	for i := range s.events {
		if s.events[i].wi == wi {
			return true
		}
	}
	for m := s.collAll &^ s.collFree; m != 0; m &= m - 1 {
		if s.collectors[bits.TrailingZeros64(m)].wi == wi {
			return true
		}
	}
	return false
}

// DebugState summarises the SM's occupancy for diagnostics.
func (s *SM) DebugState() string {
	validW, doneW, barrierW, drainW := 0, 0, 0, 0
	pend := 0
	for i := range s.warps {
		wc := &s.warps[i]
		if !wc.valid {
			continue
		}
		validW++
		if wc.done {
			doneW++
		} else if wc.w.Status() == warp.StatusBarrier {
			barrierW++
		}
		if wc.freeWhenDrained {
			drainW++
		}
		if wc.pendRegs != 0 || wc.pendPreds != 0 {
			pend++
		}
	}
	coll := bits.OnesCount64(s.collAll &^ s.collFree)
	return fmt.Sprintf("sm%d: live=%d valid=%d done=%d barrier=%d drain=%d pending=%d ctas=%d coll=%d events=%d mshr=%d",
		s.ID, s.LiveWarps(), validW, doneW, barrierW, drainW, pend, s.residentCTAs(), coll, len(s.events), s.outstanding)
}

// Cycle advances the SM by one core clock at time now. Each stage runs only
// when it has work: a writeback is due, a collector is live, a scheduler's
// ready mask is not empty, a barrier may have been reached. So a fully
// stalled cycle costs a comparison per stage and per scheduler and mutates
// no state at all, which is why the per-cycle schedules simply step every
// cycle. In per-cycle mode the caller must Commit after every Cycle, before
// the next one.
func (s *SM) Cycle(now uint64) {
	s.now = now
	if len(s.events) > 0 && now >= s.nextWb {
		s.processWritebacks()
	}
	if s.collFree != s.collAll {
		s.serveCollectors()
	}
	s.issue()
	if s.barrierCheck {
		s.releaseBarriers()
	}
}

// releaseBarriers frees CTAs whose live warps have all arrived at bar.sync.
// It runs only on cycles flagged by a barrier arrival or a warp retirement —
// the only transitions that can complete a barrier.
func (s *SM) releaseBarriers() {
	s.barrierCheck = false
	for ci := range s.ctas {
		cs := &s.ctas[ci]
		if cs.liveWarps == 0 || cs.arrived != cs.liveWarps {
			continue
		}
		for _, wi := range cs.warpSlots {
			wc := &s.warps[wi]
			if !wc.done && wc.w.Status() == warp.StatusBarrier {
				wc.w.ClearBarrier()
				s.markReady(wi)
			}
		}
		cs.arrived = 0
	}
}
