package baseline

import (
	"gscalar/internal/core"
	"gscalar/internal/isa"
	"gscalar/internal/warp"
)

// ScalarRF models the prior scalar-register-file architecture (Gilani et
// al. [3]): scalar values detected on non-divergent arithmetic/logic
// writebacks are stored in a single dedicated scalar register file bank.
// Scalar reads are cheap but all warps' scalar operands contend for the one
// bank — the burst bottleneck §4.1 describes. Scalar execution covers only
// non-divergent ALU instructions.
type ScalarRF struct {
	width  int
	live   warp.Mask
	scalar []bool // register currently holds a detected scalar value
}

// NewScalarRF allocates per-warp scalar tracking state.
func NewScalarRF(numRegs, width int, live warp.Mask) *ScalarRF {
	return &ScalarRF{width: width, live: live, scalar: make([]bool, numRegs)}
}

// IsScalarReg reports whether reg currently holds a detected scalar value.
func (s *ScalarRF) IsScalarReg(reg int) bool { return s.scalar[reg] }

// OnWrite updates scalar tracking for a register write. Only full
// (non-divergent) writes can mark a register scalar; a partial write
// invalidates scalar status (the vector copy is updated, not the scalar
// bank).
func (s *ScalarRF) OnWrite(reg int, vec []uint32, active warp.Mask) {
	if active != s.live {
		s.scalar[reg] = false
		return
	}
	s.scalar[reg] = core.IsScalar(vec, s.live)
}

// Detect reports whether the instruction is scalar-eligible under this
// architecture: non-divergent, arithmetic/logic class only, with every
// register source scalar and no per-lane special source.
func (s *ScalarRF) Detect(in *isa.Instruction, active warp.Mask) bool {
	if active != s.live {
		return false
	}
	if in.Class() != isa.ClassALU {
		return false
	}
	if in.Dst.Kind == isa.OpdNone {
		return false
	}
	if in.HasNonUniformNonRegSource() {
		return false
	}
	if in.Op == isa.OpSelP {
		return false // predicate uniformity is not tracked by this baseline
	}
	for i := uint8(0); i < in.NSrc; i++ {
		src := in.Srcs[i]
		if src.Kind == isa.OpdReg && !s.scalar[src.Reg] {
			return false
		}
	}
	return true
}
