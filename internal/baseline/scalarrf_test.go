package baseline

import (
	"testing"

	"gscalar/internal/isa"
	"gscalar/internal/warp"
)

func uvec(v uint32) []uint32 {
	out := make([]uint32, 32)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestScalarRFDetection(t *testing.T) {
	full := warp.FullMask(32)
	s := NewScalarRF(16, 32, full)

	s.OnWrite(1, uvec(5), full)
	s.OnWrite(2, uvec(7), full)
	if !s.IsScalarReg(1) || !s.IsScalarReg(2) {
		t.Fatal("uniform writes not marked scalar")
	}

	add := &isa.Instruction{Op: isa.OpIAdd, Dst: isa.Reg(3), NSrc: 2}
	add.Srcs[0], add.Srcs[1] = isa.Reg(1), isa.Reg(2)
	if !s.Detect(add, full) {
		t.Fatal("scalar ALU op not detected")
	}

	// Divergent instructions are never eligible for this baseline.
	if s.Detect(add, 0xFF) {
		t.Fatal("divergent op detected")
	}
	// SFU and memory classes are never eligible.
	sin := &isa.Instruction{Op: isa.OpSin, Dst: isa.Reg(3), NSrc: 1}
	sin.Srcs[0] = isa.Reg(1)
	if s.Detect(sin, full) {
		t.Fatal("SFU op detected by ALU-only baseline")
	}
	ld := &isa.Instruction{Op: isa.OpLdGlobal, Dst: isa.Reg(3), NSrc: 1}
	ld.Srcs[0] = isa.Reg(1)
	if s.Detect(ld, full) {
		t.Fatal("load detected by ALU-only baseline")
	}

	// A vector write invalidates scalar status.
	vec := make([]uint32, 32)
	for i := range vec {
		vec[i] = uint32(i)
	}
	s.OnWrite(1, vec, full)
	if s.IsScalarReg(1) {
		t.Fatal("vector write left register scalar")
	}
	if s.Detect(add, full) {
		t.Fatal("op with vector source detected")
	}

	// Partial writes invalidate too (the scalar bank holds stale data).
	s.OnWrite(2, uvec(7), 0xF)
	if s.IsScalarReg(2) {
		t.Fatal("partial write left register scalar")
	}
}

func TestScalarRFNonUniformSpecial(t *testing.T) {
	full := warp.FullMask(32)
	s := NewScalarRF(16, 32, full)
	mov := &isa.Instruction{Op: isa.OpMov, Dst: isa.Reg(1), NSrc: 1}
	mov.Srcs[0] = isa.Spec(isa.SpecTidX)
	if s.Detect(mov, full) {
		t.Fatal("mov tid.x detected as scalar")
	}
	mov.Srcs[0] = isa.Imm(3)
	if !s.Detect(mov, full) {
		t.Fatal("mov imm not detected as scalar")
	}
}
