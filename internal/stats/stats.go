// Package stats collects the simulator's instruction- and access-level
// statistics and formats the tables/figures of the paper's evaluation.
package stats

import (
	"fmt"
	"strings"

	"gscalar/internal/core"
	"gscalar/internal/isa"
)

// Sim aggregates the counters of one simulation run.
type Sim struct {
	Cycles        uint64
	WarpInsts     uint64 // committed warp instructions (excluding injected moves)
	ThreadInsts   uint64 // sum of active lanes over committed instructions
	InjectedMoves uint64 // decompress moves injected before divergent writes (§3.3)
	MovesElided   uint64 // moves avoided by compiler-assisted dead-value analysis (§3.3)

	// Instruction classification (Figure 1 / Figure 9 inputs).
	ByClass              [4]uint64 // per isa.Class
	Divergent            uint64    // active mask != live mask
	DivergentValueScalar uint64    // Fig 1 oracle: divergent with value-uniform sources

	// Scalar-execution eligibility as detected by the running architecture.
	EligFullALU uint64 // full-scalar, ALU class
	EligFullSFU uint64
	EligFullMem uint64
	EligHalf    uint64
	EligDiv     uint64

	// Register-file access classes (Figure 8), counted per source-register
	// read.
	RFReads [core.NumAccessClasses]uint64

	// Compression-ratio accounting (register writebacks).
	CompressedBits uint64
	OriginalBits   uint64

	// Memory system.
	L1Accesses, L1Misses uint64
	L2Accesses, L2Misses uint64
	DRAMTransactions     uint64
	MSHRMerges           uint64 // loads merged into an in-flight line fill

	// Scheduler behaviour. IssueStallScoreboard counts ready→stalled
	// transitions (a warp newly blocked on a scoreboard hazard), not
	// stalled cycles: the issue stage parks hazard-blocked warps off the
	// ready list and re-checks them only when a writeback clears the
	// hazard, so there is no per-cycle re-count to accumulate.
	//
	// IssueStallUnit and IssueStallOC count failed attempts, one per
	// waiting entry per cycle: IssueStallUnit a collector whose dispatch
	// found its unit busy or the MSHR file full, IssueStallOC a warp turned
	// away because no operand collector was free. An entry the SM parks
	// instead of retrying (a collector on a full MSHR file, a warp starved
	// of collectors) still counts once for each cycle it waits.
	IssueStallScoreboard uint64
	IssueStallUnit       uint64
	IssueStallOC         uint64
	ScalarBankConflicts  uint64 // Gilani-baseline single-bank serialization
}

// Add accumulates other into s (used to merge per-SM stats).
func (s *Sim) Add(o *Sim) {
	s.WarpInsts += o.WarpInsts
	s.ThreadInsts += o.ThreadInsts
	s.InjectedMoves += o.InjectedMoves
	s.MovesElided += o.MovesElided
	for i := range s.ByClass {
		s.ByClass[i] += o.ByClass[i]
	}
	s.Divergent += o.Divergent
	s.DivergentValueScalar += o.DivergentValueScalar
	s.EligFullALU += o.EligFullALU
	s.EligFullSFU += o.EligFullSFU
	s.EligFullMem += o.EligFullMem
	s.EligHalf += o.EligHalf
	s.EligDiv += o.EligDiv
	for i := range s.RFReads {
		s.RFReads[i] += o.RFReads[i]
	}
	s.CompressedBits += o.CompressedBits
	s.OriginalBits += o.OriginalBits
	s.L1Accesses += o.L1Accesses
	s.L1Misses += o.L1Misses
	s.L2Accesses += o.L2Accesses
	s.L2Misses += o.L2Misses
	s.DRAMTransactions += o.DRAMTransactions
	s.MSHRMerges += o.MSHRMerges
	s.IssueStallScoreboard += o.IssueStallScoreboard
	s.IssueStallUnit += o.IssueStallUnit
	s.IssueStallOC += o.IssueStallOC
	s.ScalarBankConflicts += o.ScalarBankConflicts
}

// CountInst records a committed instruction of the given class.
func (s *Sim) CountInst(class isa.Class, activeLanes int, divergent bool) {
	s.WarpInsts++
	s.ThreadInsts += uint64(activeLanes)
	s.ByClass[class]++
	if divergent {
		s.Divergent++
	}
}

// CountEligibility records the architecture's scalar classification.
func (s *Sim) CountEligibility(e core.Eligibility, class isa.Class) {
	switch e {
	case core.EligibleFull:
		switch class {
		case isa.ClassALU:
			s.EligFullALU++
		case isa.ClassSFU:
			s.EligFullSFU++
		case isa.ClassMem:
			s.EligFullMem++
		}
	case core.EligibleHalf:
		s.EligHalf++
	case core.EligibleDivergent:
		s.EligDiv++
	}
}

// IPC returns committed warp instructions per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.WarpInsts) / float64(s.Cycles)
}

// FracDivergent returns the Figure 1 divergent-instruction fraction.
func (s *Sim) FracDivergent() float64 { return frac(s.Divergent, s.WarpInsts) }

// FracDivergentScalar returns the Figure 1 divergent-scalar fraction (of
// total instructions).
func (s *Sim) FracDivergentScalar() float64 { return frac(s.DivergentValueScalar, s.WarpInsts) }

// EligibleTotal returns all instructions eligible for any scalar execution.
func (s *Sim) EligibleTotal() uint64 {
	return s.EligFullALU + s.EligFullSFU + s.EligFullMem + s.EligHalf + s.EligDiv
}

// CompressionRatio returns original/compressed bits over all writebacks.
func (s *Sim) CompressionRatio() float64 {
	if s.CompressedBits == 0 {
		return 1
	}
	return float64(s.OriginalBits) / float64(s.CompressedBits)
}

// RFReadFrac returns the Figure 8 share of access class c.
func (s *Sim) RFReadFrac(c core.AccessClass) float64 {
	var total uint64
	for _, n := range s.RFReads {
		total += n
	}
	return frac(s.RFReads[c], total)
}

// MoveOverhead returns injected moves as a fraction of committed
// instructions (§3.3: ~2 % expected).
func (s *Sim) MoveOverhead() float64 { return frac(s.InjectedMoves, s.WarpInsts) }

func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Table is a simple aligned text table builder for the experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v, floats with %.3f.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
