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
// its source operands. class/latency/occMul are copied from the program's
// per-PC metadata at issue so dispatch never re-decodes the instruction, and
// lanes (the execution lanes it activates, which is also its AGU lane count)
// is fixed at issue too. addrBuf is the collector's resident address
// scratch — the warp's address-generation stage writes into it via
// Context.AddrScratch, and it stays valid until dispatch coalesces it. lines
// is the entry's resident coalesced-transaction buffer: the line list is
// computed once on the first dispatch attempt (linesOK), so retry cycles —
// unit busy, MSHRs full — do not re-coalesce the access. An entry is live
// while its bit in SM.collFree is clear.
type collectorEntry struct {
	linesOK     bool
	wi          int
	out         warp.Outcome
	elig        core.Eligibility
	srfScalar   bool
	isMove      bool
	moveReg     uint8
	predUniform bool
	class       isa.Class
	latency     uint16
	occMul      uint8
	lanes       int
	reads       []regfile.Access
	addrBuf     []uint32
	lines       []uint32
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

// ctaSlot tracks one resident CTA. arrived counts its live warps currently
// waiting at bar.sync, maintained incrementally at barrier arrival and
// release so the per-cycle release check is a comparison, not a scan.
type ctaSlot struct {
	active    bool
	ctaID     int
	shared    []uint32
	warpSlots []int
	liveWarps int
	arrived   int
}

// warpCtx bundles a warp with its per-architecture register state.
type warpCtx struct {
	valid     bool
	done      bool
	w         *warp.Warp
	ctx       warp.Context
	meta      *core.WarpRegs
	srf       *baseline.ScalarRF
	bdi       *baseline.BDIRegFile
	pendRegs  uint64
	pendPreds uint8
	ctaSlot   int
	// freeWhenDrained marks a slot whose CTA finished while writebacks were
	// still in flight; the slot is recycled once they drain.
	freeWhenDrained bool
	// ready mirrors "this warp might issue": valid, not done, not at a
	// barrier, not scoreboard-stalled. The SM counts ready warps so the
	// issue stage can be skipped entirely on stall-only cycles.
	ready bool
	// scoreStalled records a scoreboard (RAW/WAW) stall. A warp's hazard
	// state depends only on its own pending registers and its static next
	// instruction, so the stall can only clear when one of the warp's own
	// writebacks completes — which is exactly where it is cleared.
	scoreStalled bool
	// ocStarved records that the warp's next instruction passed the
	// scoreboard and was turned away for want of a free operand collector.
	// Only the warp's own issue moves its PC or its masks, and writebacks
	// only clear pending registers, so until it issues the same instruction
	// would pass the same checks: while no collector is free, tryIssueWarp
	// counts the stall without decoding it again.
	ocStarved bool
	// regVec is w.RegVec bound once at launch, so the divergence oracle
	// does not allocate a closure per divergent instruction.
	regVec func(uint8) []uint32
}

// lineFill tracks one in-flight L1 line fill (see SM.fills).
type lineFill struct {
	line uint32
	done uint64
}

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
	// Unit indices: 0..ALUUnits-1 are ALU pipelines, then MEM, then SFU.
	unitBusy []uint64
	events   []wbEvent
	// regArena backs every resident warp's lane storage (registers + thread
	// coordinates) in one flat per-SM slice; chunks are recycled when warp
	// slots are released, so mid-run CTA launches allocate nothing. laneAlloc
	// is regArena.Alloc bound once so launches do not allocate a closure.
	regArena  *regfile.Arena
	laneAlloc func(words int) []uint32

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

	outstanding   int
	regBytesInUse int
	deadOnWrite   []bool // §3.3 compiler-assisted elision table
	// fills tracks in-flight L1 line fills so that a second access to a
	// line already being fetched merges into the outstanding fill (MSHR
	// merging) instead of observing an instant hit. It is a small linear
	// slice (bounded by the MSHR count once landed fills are pruned), which
	// beats a map both in scan cost and in iteration determinism.
	fills      []lineFill
	lastIssued []int
	liveWarps  int
	now        uint64

	// Incremental occupancy counters: each pipeline stage is skipped when
	// its counter says it has no work, which is what makes stall-heavy
	// cycles cheap and lets NextEventCycle recognise quiescence in O(1).
	liveCollectors int  // valid operand-collector entries
	readyWarps     int  // warps with ready set
	barrierCheck   bool // a barrier arrival/retire may have released a CTA
	nextWb         uint64
	// nextWb caches min(events[i].done) (NoEvent when none) so writeback
	// processing — and NextEventCycle — needs no scan.

	wbScratch   []wbEvent // processWritebacks reuse
	candScratch []int     // issueFrom candidate snapshot reuse

	// schedWarps[sched] lists the valid, not-done warp slots of scheduler
	// sched in ascending warp GlobalID order — the GTO age order — so the
	// issue stage walks a pre-sorted list instead of sorting per cycle.
	schedWarps [][]int

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
		l1:     mem.NewCache(cfg.L1Bytes, cfg.L1Assoc),
		meter:  meter,
		nextWb: NoEvent,
	}
	// Assembled programs arrive with the per-PC decode cache built; hand-
	// constructed ones get it here. New always runs before any concurrent
	// step, so this is safe for the parallel schedules too.
	prog.BuildMeta()
	s.storeBuf = &kernel.StoreBuffer{}
	s.warps = make([]warpCtx, cfg.MaxWarps)
	s.ctas = make([]ctaSlot, cfg.MaxCTAs)
	s.collectors = make([]collectorEntry, cfg.NumCollectors)
	for i := range s.collectors {
		s.collectors[i].addrBuf = make([]uint32, cfg.WarpSize)
	}
	s.collAll = (uint64(1) << cfg.NumCollectors) - 1 // all ones at 64
	s.collFree = s.collAll
	s.regArena = regfile.NewArena(cfg.MaxWarps * warp.StorageWords(prog.NumRegs, cfg.WarpSize))
	s.laneAlloc = s.regArena.Alloc
	s.unitBusy = make([]uint64, cfg.ALUUnits+2)
	s.lastIssued = make([]int, cfg.Schedulers)
	for i := range s.lastIssued {
		s.lastIssued[i] = -1
	}
	s.schedWarps = make([][]int, cfg.Schedulers)
	s.rf = regfile.New(cfg.NumBanks)
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

func (s *SM) unitMem() int { return s.cfg.ALUUnits }
func (s *SM) unitSFU() int { return s.cfg.ALUUnits + 1 }

// warpsPerCTA returns warps needed per CTA for the current launch.
func (s *SM) warpsPerCTA() int {
	return (s.launch.Block.Count() + s.cfg.WarpSize - 1) / s.cfg.WarpSize
}

// CTARegBytes returns the register-file footprint of one CTA of the
// current launch.
func (s *SM) CTARegBytes() int {
	return s.warpsPerCTA() * s.cfg.WarpSize * s.prog.NumRegs * 4
}

// CanTakeCTA reports whether a new CTA fits: a free CTA slot, enough warp
// slots, and enough register-file capacity.
func (s *SM) CanTakeCTA() bool {
	freeSlot := false
	for i := range s.ctas {
		if !s.ctas[i].active {
			freeSlot = true
			break
		}
	}
	if !freeSlot {
		return false
	}
	if s.cfg.RegFileBytes > 0 && s.regBytesInUse+s.CTARegBytes() > s.cfg.RegFileBytes {
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
		if !s.ctas[i].active {
			slot = i
			break
		}
	}
	if slot < 0 {
		s.fail(fmt.Errorf("sm%d: LaunchCTA with no free slot", s.ID))
		return
	}
	wpc := s.warpsPerCTA()
	ws := warp.BuildCTAStored(s.prog, s.launch, ctaLinear, s.cfg.WarpSize, ctaLinear*wpc, s.laneAlloc)
	shared := make([]uint32, (s.launch.SharedBytes+3)/4)
	cs := &s.ctas[slot]
	*cs = ctaSlot{active: true, ctaID: ctaLinear, shared: shared, liveWarps: len(ws)}
	s.regBytesInUse += s.CTARegBytes()
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
		*wc = warpCtx{
			valid: true,
			w:     w,
			ctx: warp.Context{
				Prog:     s.prog,
				Launch:   s.launch,
				Global:   s.gmem,
				Shared:   shared,
				StoreBuf: s.storeBuf,
			},
			ctaSlot: slot,
		}
		wc.meta = core.NewWarpRegs(s.prog.NumRegs, 8, s.cfg.WarpSize, w.LiveMask)
		switch {
		case s.arch.Scalar == ScalarPriorRF:
			wc.srf = baseline.NewScalarRF(s.prog.NumRegs, s.cfg.WarpSize, w.LiveMask)
		case s.arch.RVC == RVCBDI:
			wc.bdi = baseline.NewBDIRegFile(s.prog.NumRegs, s.cfg.WarpSize)
		}
		wc.regVec = w.RegVec
		wc.ready = true
		s.readyWarps++
		s.schedInsert(wi)
		cs.warpSlots = append(cs.warpSlots, wi)
		s.liveWarps++
	}
}

// Busy reports whether the SM still has work.
func (s *SM) Busy() bool {
	return s.liveWarps > 0 || len(s.events) > 0
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
	if s.err != nil || s.readyWarps > 0 || s.liveCollectors > 0 {
		return 0, false
	}
	if len(s.events) == 0 {
		if s.liveWarps > 0 {
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

// markReady flags a warp as issuable and maintains the ready count. Warps
// that are done or parked at a barrier stay unready; barrier release is the
// one place a barrier warp becomes ready again.
func (s *SM) markReady(wi int) {
	wc := &s.warps[wi]
	if wc.ready || !wc.valid || wc.done || wc.w.Status() != warp.StatusReady {
		return
	}
	wc.ready = true
	s.readyWarps++
}

// markUnready clears a warp's ready flag and maintains the ready count.
func (s *SM) markUnready(wi int) {
	wc := &s.warps[wi]
	if wc.ready {
		wc.ready = false
		s.readyWarps--
	}
}

// schedInsert adds warp slot wi to its scheduler's issue list, keeping the
// list in ascending GlobalID (age) order.
func (s *SM) schedInsert(wi int) {
	sched := wi % s.cfg.Schedulers
	list := s.schedWarps[sched]
	gid := s.warps[wi].w.GlobalID
	pos := len(list)
	for pos > 0 && s.warps[list[pos-1]].w.GlobalID > gid {
		pos--
	}
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = wi
	s.schedWarps[sched] = list
}

// schedRemove drops warp slot wi from its scheduler's issue list.
func (s *SM) schedRemove(wi int) {
	sched := wi % s.cfg.Schedulers
	list := s.schedWarps[sched]
	for i, v := range list {
		if v == wi {
			s.schedWarps[sched] = append(list[:i], list[i+1:]...)
			return
		}
	}
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
	s.markUnready(wi)
	s.schedRemove(wi)
	s.liveWarps--
	cs := &s.ctas[wc.ctaSlot]
	cs.liveWarps--
	if cs.liveWarps == 0 {
		for _, slot := range cs.warpSlots {
			if s.hasInFlight(slot) {
				s.warps[slot].freeWhenDrained = true
			} else {
				s.regArena.Free(s.warps[slot].w.Storage())
				s.warps[slot].valid = false
			}
		}
		cs.active = false
		s.regBytesInUse -= s.CTARegBytes()
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
	activeCTAs := 0
	for i := range s.ctas {
		if s.ctas[i].active {
			activeCTAs++
		}
	}
	coll := bits.OnesCount64(s.collAll &^ s.collFree)
	return fmt.Sprintf("sm%d: live=%d valid=%d done=%d barrier=%d drain=%d pending=%d ctas=%d coll=%d events=%d mshr=%d",
		s.ID, s.liveWarps, validW, doneW, barrierW, drainW, pend, activeCTAs, coll, len(s.events), s.outstanding)
}

// Cycle advances the SM by one core clock at time now. Each stage runs only
// when its occupancy counter says it has work, so a fully stalled cycle
// costs four comparisons and mutates no state at all, which is why the
// per-cycle schedules simply step every cycle. In per-cycle mode the caller
// must Commit after every Cycle, before the next one.
func (s *SM) Cycle(now uint64) {
	s.now = now
	if len(s.events) > 0 && now >= s.nextWb {
		s.processWritebacks()
	}
	if s.liveCollectors > 0 {
		s.serveCollectors()
	}
	if s.readyWarps > 0 {
		s.issue()
	}
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
		if !cs.active || cs.liveWarps == 0 || cs.arrived != cs.liveWarps {
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
