package core

import (
	"testing"

	"gscalar/internal/isa"
	"gscalar/internal/warp"
)

func inst(op isa.Opcode, dst isa.Operand, srcs ...isa.Operand) *isa.Instruction {
	in := &isa.Instruction{Op: op, Dst: dst, Target: -1, RPC: -1}
	copy(in.Srcs[:], srcs)
	in.NSrc = uint8(len(srcs))
	return in
}

func TestDetectFullScalar(t *testing.T) {
	wr := newWR()
	f := gsFeatures()
	full := warp.FullMask(32)
	wr.OnWrite(1, uniformVec(5), full, f, false)
	wr.OnWrite(2, uniformVec(9), full, f, false)

	in := inst(isa.OpIAdd, isa.Reg(3), isa.Reg(1), isa.Reg(2))
	if e := wr.Detect(in, full, f); e != EligibleFull {
		t.Fatalf("scalar+scalar = %v", e)
	}

	// One vector source kills eligibility.
	wr.OnWrite(4, rampVec(0), full, f, false)
	in = inst(isa.OpIAdd, isa.Reg(3), isa.Reg(1), isa.Reg(4))
	if e := wr.Detect(in, full, f); e != NotEligible {
		t.Fatalf("scalar+vector = %v", e)
	}

	// Immediate-only sources are trivially scalar.
	in = inst(isa.OpMov, isa.Reg(3), isa.Imm(7))
	if e := wr.Detect(in, full, f); e != EligibleFull {
		t.Fatalf("imm-only = %v", e)
	}

	// A per-lane special source forces vector execution.
	in = inst(isa.OpMov, isa.Reg(3), isa.Spec(isa.SpecTidX))
	if e := wr.Detect(in, full, f); e != NotEligible {
		t.Fatalf("tid source = %v", e)
	}

	// Warp-uniform specials are fine.
	in = inst(isa.OpMov, isa.Reg(3), isa.Spec(isa.SpecCtaIDX))
	if e := wr.Detect(in, full, f); e != EligibleFull {
		t.Fatalf("ctaid source = %v", e)
	}
}

func TestDetectClassGating(t *testing.T) {
	full := warp.FullMask(32)
	wr := newWR()
	f := gsFeatures()
	wr.OnWrite(1, uniformVec(5), full, f, false)

	sfu := inst(isa.OpSin, isa.Reg(2), isa.Reg(1))
	mem := inst(isa.OpLdGlobal, isa.Reg(2), isa.Reg(1))
	if e := wr.Detect(sfu, full, f); e != EligibleFull {
		t.Errorf("SFU under G-Scalar = %v", e)
	}
	if e := wr.Detect(mem, full, f); e != EligibleFull {
		t.Errorf("mem under G-Scalar = %v", e)
	}

	// The prior-work feature set (ALU only) rejects SFU and memory.
	alu := Features{ScalarALU: true}
	if e := wr.Detect(sfu, full, alu); e != NotEligible {
		t.Errorf("SFU under ALU-only = %v", e)
	}
	if e := wr.Detect(mem, full, alu); e != NotEligible {
		t.Errorf("mem under ALU-only = %v", e)
	}
	add := inst(isa.OpIAdd, isa.Reg(2), isa.Reg(1), isa.Imm(1))
	if e := wr.Detect(add, full, alu); e != EligibleFull {
		t.Errorf("ALU under ALU-only = %v", e)
	}
}

func TestDetectHalfScalar(t *testing.T) {
	full := warp.FullMask(32)
	wr := newWR()
	f := gsFeatures()
	vec := make([]uint32, 32)
	for i := range vec {
		if i < 16 {
			vec[i] = 0xA
		} else {
			vec[i] = 0xB
		}
	}
	wr.OnWrite(1, vec, full, f, false)
	in := inst(isa.OpIAdd, isa.Reg(2), isa.Reg(1), isa.Imm(1))
	if e := wr.Detect(in, full, f); e != EligibleHalf {
		t.Fatalf("half-scalar = %v", e)
	}
	// With half-scalar disabled it is not eligible.
	f2 := f
	f2.HalfScalar = false
	if e := wr.Detect(in, full, f2); e != NotEligible {
		t.Fatalf("half disabled = %v", e)
	}
	// Half-scalar is only for non-divergent instructions (§4.3).
	if e := wr.Detect(in, 0xFFFF, f); e != NotEligible {
		t.Fatalf("divergent half = %v", e)
	}
}

func TestDetectDivergentScalar(t *testing.T) {
	full := warp.FullMask(32)
	maskA := warp.Mask(0x0000F00F)
	wr := newWR()
	f := gsFeatures()

	// r1 written divergently with a uniform value under maskA.
	wr.OnWrite(1, uniformVec(7), maskA, f, false)
	in := inst(isa.OpIAdd, isa.Reg(2), isa.Reg(1), isa.Imm(1))

	// Same mask: eligible (the Figure 7(b) mask match).
	if e := wr.Detect(in, maskA, f); e != EligibleDivergent {
		t.Fatalf("same-mask divergent = %v", e)
	}
	// Different mask: the enc bits are invalid — not eligible.
	if e := wr.Detect(in, 0x0FF0, f); e != NotEligible {
		t.Fatalf("other-mask divergent = %v", e)
	}
	// Full-mask reader of a divergently-written register: not eligible.
	if e := wr.Detect(in, full, f); e != NotEligible {
		t.Fatalf("full-mask reader = %v", e)
	}
	// A compressed full-scalar register is valid under ANY divergent mask.
	wr.OnWrite(3, uniformVec(9), full, f, false)
	in = inst(isa.OpIAdd, isa.Reg(2), isa.Reg(3), isa.Imm(1))
	if e := wr.Detect(in, maskA, f); e != EligibleDivergent {
		t.Fatalf("compressed-scalar under divergence = %v", e)
	}
	// Divergent scalar disabled (G-Scalar w/o divergent).
	f2 := GScalarNoDivFeatures()
	if e := wr.Detect(in, maskA, f2); e != NotEligible {
		t.Fatalf("divergent disabled = %v", e)
	}
}

func TestDetectPaperFigure7Example(t *testing.T) {
	// Figure 7(b): r2 = r2*2 writes a divergent scalar under M=10001111;
	// r1 = abs(r2) on the other path (M=01110000) must NOT be eligible.
	wr := NewWarpRegs(8, 8, 8, warp.FullMask(8))
	f := gsFeatures()
	maskThen := warp.Mask(0b10001111)
	maskElse := warp.Mask(0b01110000)

	vec := []uint32{4, 4, 4, 4, 0, 0, 0, 4}
	wr.OnWrite(2, vec, maskThen, f, false)
	if m := wr.Meta(2); !m.D || m.Enc != 4 || m.DMask != maskThen {
		t.Fatalf("meta after divergent scalar write = %+v", m)
	}

	abs := inst(isa.OpIAbs, isa.Reg(1), isa.Reg(2))
	if e := wr.Detect(abs, maskElse, f); e != NotEligible {
		t.Fatalf("other-path read = %v, want NotEligible", e)
	}
	if e := wr.Detect(abs, maskThen, f); e != EligibleDivergent {
		t.Fatalf("same-path read = %v, want EligibleDivergent", e)
	}
}

func TestDetectSelpPredicate(t *testing.T) {
	full := warp.FullMask(32)
	wr := newWR()
	f := gsFeatures()
	wr.OnWrite(1, uniformVec(5), full, f, false)
	wr.OnWrite(2, uniformVec(6), full, f, false)

	selp := inst(isa.OpSelP, isa.Reg(3), isa.Reg(1), isa.Reg(2), isa.Pred(0))
	// Untracked predicate: not eligible.
	if e := wr.Detect(selp, full, f); e != NotEligible {
		t.Fatalf("selp untracked pred = %v", e)
	}
	wr.OnPredWrite(0, full, true)
	if e := wr.Detect(selp, full, f); e != EligibleFull {
		t.Fatalf("selp uniform pred = %v", e)
	}
	wr.OnPredWrite(0, full, false)
	if e := wr.Detect(selp, full, f); e != NotEligible {
		t.Fatalf("selp non-uniform pred = %v", e)
	}
}

func TestSourcesScalarForPred(t *testing.T) {
	full := warp.FullMask(32)
	wr := newWR()
	f := gsFeatures()
	wr.OnWrite(1, uniformVec(5), full, f, false)
	setp := inst(isa.OpISetP, isa.Pred(0), isa.Reg(1), isa.Imm(3))
	if !wr.SourcesScalarForPred(setp, full) {
		t.Error("scalar setp not detected")
	}
	wr.OnWrite(4, rampVec(0), full, f, false)
	setp = inst(isa.OpISetP, isa.Pred(0), isa.Reg(4), isa.Imm(3))
	if wr.SourcesScalarForPred(setp, full) {
		t.Error("vector setp detected as scalar")
	}
}

func TestValueScalarOracle(t *testing.T) {
	src := warp.New(0, 0, 0, 32, 3, warp.FullMask(32))
	copy(src.RegVec(1), uniformVec(5))
	copy(src.RegVec(2), rampVec(100))
	mask := warp.Mask(0xF)

	in := inst(isa.OpIAdd, isa.Reg(3), isa.Reg(1), isa.Imm(2))
	if !ValueScalarOracle(in, mask, src) {
		t.Error("uniform source not detected")
	}
	in = inst(isa.OpIAdd, isa.Reg(3), isa.Reg(2), isa.Imm(2))
	if ValueScalarOracle(in, mask, src) {
		t.Error("ramp source detected as scalar")
	}
	// But under a single-lane mask, any vector is scalar.
	if !ValueScalarOracle(in, 1<<3, src) {
		t.Error("single-lane mask should be scalar")
	}
	in = inst(isa.OpIAdd, isa.Reg(3), isa.Reg(1), isa.Spec(isa.SpecLaneID))
	if ValueScalarOracle(in, mask, src) {
		t.Error("laneid source detected as scalar")
	}
}

func TestEligibilityString(t *testing.T) {
	for e, want := range map[Eligibility]string{
		NotEligible: "vector", EligibleFull: "full-scalar",
		EligibleHalf: "half-scalar", EligibleDivergent: "divergent-scalar",
	} {
		if e.String() != want {
			t.Errorf("%d.String() = %q", e, e.String())
		}
	}
}
