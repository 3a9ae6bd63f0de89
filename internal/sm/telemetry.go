package sm

import (
	"math/bits"

	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/telemetry"
)

// LiveWarps returns the number of resident, unfinished warps: the length of
// the scheduler lists. Like Retired, it is a plain read safe between cycles
// (serially, or after the chip loop's worker barrier) for progress and
// telemetry sampling.
func (s *SM) LiveWarps() int {
	n := 0
	for i := range s.scheds {
		n += len(s.scheds[i].warps)
	}
	return n
}

// readyWarps returns the number of warps that might issue: the bits of the
// scheduler ready masks.
func (s *SM) readyWarps() int {
	n := 0
	for i := range s.scheds {
		n += bits.OnesCount64(s.scheds[i].ready)
	}
	return n
}

// RegisterTelemetry registers this SM's counters and gauges, keyed by its id.
// Every source is state the simulation already maintains — no telemetry
// work happens on the hot path; the registry reads the values at
// checkpoint samples and finalization only.
func (s *SM) RegisterTelemetry(reg *telemetry.Registry) {
	id := s.ID
	st := &s.st
	reg.Counter("sm.warp_insts", id, &st.WarpInsts)
	reg.Counter("sm.thread_insts", id, &st.ThreadInsts)
	reg.Counter("sm.injected_moves", id, &st.InjectedMoves)
	reg.Counter("sm.moves_elided", id, &st.MovesElided)
	reg.Counter("sm.divergent", id, &st.Divergent)
	reg.Counter("sm.class_alu", id, &st.ByClass[isa.ClassALU])
	reg.Counter("sm.class_sfu", id, &st.ByClass[isa.ClassSFU])
	reg.Counter("sm.class_mem", id, &st.ByClass[isa.ClassMem])
	reg.Counter("sm.class_ctrl", id, &st.ByClass[isa.ClassCtrl])
	reg.Counter("sm.elig_full_alu", id, &st.EligFullALU)
	reg.Counter("sm.elig_full_sfu", id, &st.EligFullSFU)
	reg.Counter("sm.elig_full_mem", id, &st.EligFullMem)
	reg.Counter("sm.elig_half", id, &st.EligHalf)
	reg.Counter("sm.elig_divergent", id, &st.EligDiv)
	reg.Counter("sm.l1_accesses", id, &st.L1Accesses)
	reg.Counter("sm.l1_misses", id, &st.L1Misses)
	reg.Counter("sm.l2_accesses", id, &st.L2Accesses)
	reg.Counter("sm.l2_misses", id, &st.L2Misses)
	reg.Counter("sm.dram_transactions", id, &st.DRAMTransactions)
	reg.Counter("sm.mshr_merges", id, &st.MSHRMerges)
	reg.Counter("sm.stall_scoreboard", id, &st.IssueStallScoreboard)
	reg.Counter("sm.stall_unit", id, &st.IssueStallUnit)
	reg.Counter("sm.stall_collector", id, &st.IssueStallOC)
	reg.Counter("sm.scalarbank_conflicts", id, &st.ScalarBankConflicts)
	for c := core.AccessClass(0); c < core.NumAccessClasses; c++ {
		reg.Counter("sm.rf_reads_"+c.String(), id, &st.RFReads[c])
	}
	reg.Gauge("sm.live_warps", id, func() float64 { return float64(s.LiveWarps()) })
	reg.Gauge("sm.ready_warps", id, func() float64 { return float64(s.readyWarps()) })
	s.rf.RegisterTelemetry(reg, id)
}
