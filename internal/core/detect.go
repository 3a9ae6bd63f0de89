package core

import (
	"gscalar/internal/isa"
	"gscalar/internal/warp"
)

// Eligibility is the scalar-execution classification of one dynamic
// instruction.
type Eligibility uint8

// Eligibility values.
const (
	NotEligible Eligibility = iota
	// EligibleFull: all source values are warp-uniform; the instruction
	// executes on a single lane for the whole warp.
	EligibleFull
	// EligibleHalf: each 16-lane group's sources are uniform within the
	// group (with at least two distinct group values); one lane executes
	// per group (§4.3).
	EligibleHalf
	// EligibleDivergent: a divergent instruction whose source values are
	// uniform across its active lanes, detected via the mask-matching
	// mechanism of §4.2.
	EligibleDivergent
)

// String returns a short label.
func (e Eligibility) String() string {
	switch e {
	case EligibleFull:
		return "full-scalar"
	case EligibleHalf:
		return "half-scalar"
	case EligibleDivergent:
		return "divergent-scalar"
	}
	return "vector"
}

// classEnabled reports whether scalar execution is enabled for the
// instruction's pipeline class.
func classEnabled(f Features, in *isa.Instruction) bool {
	switch in.Class() {
	case isa.ClassALU:
		return f.ScalarALU
	case isa.ClassSFU:
		return f.ScalarSFU
	case isa.ClassMem:
		return f.ScalarMem
	}
	return false
}

// Detect classifies the instruction about to execute under active, using
// only information the hardware has: the EBR/BVR metadata, the D flags and
// stored masks, and the operand kinds. It must be called before the
// instruction's writeback updates the metadata.
//
// live is the warp's launched-lane mask: an instruction is divergent when
// its active mask differs from it (the paper's definition).
func (wr *WarpRegs) Detect(in *isa.Instruction, active warp.Mask, f Features) Eligibility {
	if !classEnabled(f, in) {
		return NotEligible
	}
	if in.Dst.Kind == isa.OpdNone && !in.IsStore() {
		return NotEligible // nothing to produce (nop, control)
	}
	// Any per-lane non-register source (%tid.x, %laneid) forces vector
	// execution.
	if in.HasNonUniformNonRegSource() {
		return NotEligible
	}
	// The selecting predicate of selp must be uniform under the current
	// mask; predicates written by scalar comparisons are tracked.
	if in.Op == isa.OpSelP {
		pm := wr.preds[in.Srcs[2].Reg]
		if !pm.Uniform || !maskCovered(pm.Mask, active, wr.Live) {
			return NotEligible
		}
	}

	if active == wr.Live {
		return wr.detectNonDivergent(in, f)
	}
	if !f.DivergentScalar {
		return NotEligible
	}
	return wr.detectDivergent(in, active)
}

func (wr *WarpRegs) detectNonDivergent(in *isa.Instruction, f Features) Eligibility {
	full := true
	half := f.HalfScalar && f.HalfCompression
	anyReg := false
	for i := uint8(0); i < in.NSrc; i++ {
		s := in.Srcs[i]
		if s.Kind != isa.OpdReg {
			continue
		}
		anyReg = true
		m := &wr.regs[s.Reg]
		if m.D {
			// Divergently-written register: enc bits are valid only for the
			// stored mask, which cannot equal the full live mask.
			return NotEligible
		}
		if m.Enc != 4 {
			full = false
		}
		if half {
			for g := 0; g < wr.groups; g++ {
				if m.GEnc[g] != 4 {
					half = false
					break
				}
			}
		}
	}
	_ = anyReg // zero-register-source instructions are trivially scalar
	if full {
		return EligibleFull
	}
	if half {
		return EligibleHalf
	}
	return NotEligible
}

func (wr *WarpRegs) detectDivergent(in *isa.Instruction, active warp.Mask) Eligibility {
	for i := uint8(0); i < in.NSrc; i++ {
		s := in.Srcs[i]
		if s.Kind != isa.OpdReg {
			continue
		}
		m := &wr.regs[s.Reg]
		switch {
		case !m.D && m.Enc == 4:
			// A compressed full-scalar register is uniform under any mask.
		case m.D && m.Enc == 4 && m.DMask == active:
			// Divergent scalar: the stored mask matches the current active
			// mask (Figure 7(b)); the enc bits are valid for these lanes.
		default:
			return NotEligible
		}
	}
	return EligibleDivergent
}

// maskCovered reports whether uniformity established under wrote is valid
// for a read under active: either the write was non-divergent (covers all
// live lanes) or the masks match exactly.
func maskCovered(wrote, active, live warp.Mask) bool {
	return wrote == live || wrote == active
}

// SourcesScalarForPred reports whether every register source of a
// predicate-writing instruction was scalar under active — the condition
// under which the written predicate is uniform. It mirrors Detect's source
// checks without the class gating.
func (wr *WarpRegs) SourcesScalarForPred(in *isa.Instruction, active warp.Mask) bool {
	if in.HasNonUniformNonRegSource() {
		return false
	}
	for i := uint8(0); i < in.NSrc; i++ {
		s := in.Srcs[i]
		if s.Kind != isa.OpdReg {
			continue
		}
		m := &wr.regs[s.Reg]
		switch {
		case !m.D && m.Enc == 4:
		case m.D && m.Enc == 4 && m.DMask == active:
		default:
			return false
		}
	}
	return true
}

// ValueScalarOracle reports whether the instruction's register sources are
// value-uniform across the active lanes of warp w — the application-
// characterisation metric of Figure 1, which is independent of any
// detection mechanism. It must be called before the instruction executes
// (sources may alias the destination).
func ValueScalarOracle(in *isa.Instruction, active warp.Mask, w *warp.Warp) bool {
	if in.HasNonUniformNonRegSource() {
		return false
	}
	if in.Op == isa.OpSelP {
		// The oracle cannot cheaply prove predicate uniformity; treat selp
		// conservatively as non-scalar.
		return false
	}
	for i := uint8(0); i < in.NSrc; i++ {
		s := in.Srcs[i]
		if s.Kind != isa.OpdReg {
			continue
		}
		if !IsScalar(w.RegVec(s.Reg), active) {
			return false
		}
	}
	return true
}
