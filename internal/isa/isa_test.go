package isa

import (
	"testing"
	"testing/quick"
)

func TestClassOf(t *testing.T) {
	cases := map[Opcode]Class{
		OpIAdd: ClassALU, OpFFma: ClassALU, OpISetP: ClassALU, OpSelP: ClassALU,
		OpF2I: ClassALU, OpVMov: ClassALU,
		OpSin: ClassSFU, OpSqrt: ClassSFU, OpRcp: ClassSFU,
		OpLdGlobal: ClassMem, OpStShared: ClassMem,
		OpBra: ClassCtrl, OpExit: ClassCtrl, OpBar: ClassCtrl,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestCmpEval(t *testing.T) {
	if !CmpLT.Eval(-5, 3) {
		t.Error("signed lt broken")
	}
	if CmpLT.Eval(3, -5) {
		t.Error("signed lt inverted")
	}
	if !CmpGE.Eval(3, 3) || !CmpLE.Eval(3, 3) || !CmpEQ.Eval(3, 3) || CmpNE.Eval(3, 3) {
		t.Error("equality conditions broken")
	}
	if !CmpGT.EvalF(1.5, 1.25) || CmpGT.EvalF(1.25, 1.5) {
		t.Error("float gt broken")
	}
	// Eval and EvalF agree on trichotomy.
	f := func(a, b int32) bool {
		lt := CmpLT.Eval(a, b)
		gt := CmpGT.Eval(a, b)
		eq := CmpEQ.Eval(a, b)
		n := 0
		for _, v := range []bool{lt, gt, eq} {
			if v {
				n++
			}
		}
		return n == 1 && CmpLE.Eval(a, b) == (lt || eq) && CmpGE.Eval(a, b) == (gt || eq) && CmpNE.Eval(a, b) == !eq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOperandUniformity(t *testing.T) {
	if !Imm(5).IsUniform() || !Param(2).IsUniform() {
		t.Error("imm/param must be uniform")
	}
	if Spec(SpecTidX).IsUniform() || Spec(SpecLaneID).IsUniform() {
		t.Error("per-lane specials must not be uniform")
	}
	if !Spec(SpecCtaIDX).IsUniform() || !Spec(SpecNTidX).IsUniform() {
		t.Error("warp-uniform specials must be uniform")
	}
	if Reg(3).IsUniform() {
		t.Error("register operands have unknown uniformity")
	}
}

func TestInstructionHelpers(t *testing.T) {
	ld := Instruction{Op: OpLdGlobal, Dst: Reg(1), NSrc: 1}
	ld.Srcs[0] = Reg(2)
	if !ld.IsLoad() || ld.IsStore() || !ld.IsGlobalMem() {
		t.Error("load classification broken")
	}
	if r, ok := ld.WritesReg(); !ok || r != 1 {
		t.Error("WritesReg broken")
	}
	st := Instruction{Op: OpStShared, NSrc: 2}
	if st.IsLoad() || !st.IsStore() || st.IsGlobalMem() {
		t.Error("store classification broken")
	}
	setp := Instruction{Op: OpISetP, Dst: Pred(3)}
	if p, ok := setp.WritesPred(); !ok || p != 3 {
		t.Error("WritesPred broken")
	}
	if _, ok := setp.WritesReg(); ok {
		t.Error("setp should not write a register")
	}
}

func TestLatencies(t *testing.T) {
	if Latency(OpIDiv) <= Latency(OpIMul) {
		t.Error("divide should be slower than multiply")
	}
	if Latency(OpSin) <= Latency(OpIAdd) {
		t.Error("SFU should be slower than simple ALU")
	}
}

func TestStrings(t *testing.T) {
	in := Instruction{Op: OpIAdd, Dst: Reg(1), NSrc: 2}
	in.Srcs[0], in.Srcs[1] = Reg(2), Imm(0x10)
	if got := in.String(); got != "iadd r1, r2, 0x10" {
		t.Errorf("String() = %q", got)
	}
	g := Guard{On: true, Neg: true, Reg: 3}
	if g.String() != "@!p3 " {
		t.Errorf("guard = %q", g.String())
	}
	if SpecialByName["%tid.x"] != SpecTidX {
		t.Error("SpecialByName broken")
	}
}
