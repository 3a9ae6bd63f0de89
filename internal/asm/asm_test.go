package asm

import (
	"math"
	"strings"
	"testing"

	"gscalar/internal/isa"
)

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
.kernel demo
	mov r1, %tid.x
	iadd r2, r1, 5
	isetp.lt p0, r2, $0
	@p0 bra END
	fmul r3, r2, 1.5
END:
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" {
		t.Errorf("name = %q, want demo", p.Name)
	}
	if p.Len() != 6 {
		t.Fatalf("len = %d, want 6", p.Len())
	}
	in := p.At(0)
	if in.Op != isa.OpMov || in.Srcs[0].Kind != isa.OpdSpecial || in.Srcs[0].Special != isa.SpecTidX {
		t.Errorf("inst 0 = %v", in)
	}
	in = p.At(1)
	if in.Op != isa.OpIAdd || in.Srcs[1].Imm != 5 {
		t.Errorf("inst 1 = %v", in)
	}
	in = p.At(2)
	if in.Op != isa.OpISetP || in.Cmp != isa.CmpLT || in.Dst.Kind != isa.OpdPred {
		t.Errorf("inst 2 = %v", in)
	}
	in = p.At(3)
	if !in.Guard.On || in.Guard.Reg != 0 || in.Guard.Neg {
		t.Errorf("inst 3 guard = %v", in.Guard)
	}
	if in.Target != 5 {
		t.Errorf("branch target = %d, want 5", in.Target)
	}
	in = p.At(4)
	if in.Op != isa.OpFMul || in.Srcs[1].Imm != math.Float32bits(1.5) {
		t.Errorf("float imm = %#x", in.Srcs[1].Imm)
	}
	if p.NumRegs != 4 {
		t.Errorf("NumRegs = %d, want 4", p.NumRegs)
	}
}

func TestAssembleMemoryOperands(t *testing.T) {
	p, err := Assemble(`
	ldg r1, [r2+8]
	ldg r3, [r4-4]
	stg [r5], r6
	lds r7, [r8+1024]
	sts [r9-12], r10
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op   isa.Opcode
		off  int32
		addr uint8
	}{
		{isa.OpLdGlobal, 8, 2},
		{isa.OpLdGlobal, -4, 4},
		{isa.OpStGlobal, 0, 5},
		{isa.OpLdShared, 1024, 8},
		{isa.OpStShared, -12, 9},
	}
	for i, c := range cases {
		in := p.At(i)
		if in.Op != c.op || in.Off != c.off || in.Srcs[0].Reg != c.addr {
			t.Errorf("inst %d = %v (off %d)", i, in, in.Off)
		}
	}
}

func TestAssembleNegativeAndHexImmediates(t *testing.T) {
	p, err := Assemble(`
	mov r1, -1
	mov r2, 0xdeadbeef
	mov r3, -2.5
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.At(0).Srcs[0].Imm != 0xFFFFFFFF {
		t.Errorf("-1 = %#x", p.At(0).Srcs[0].Imm)
	}
	if p.At(1).Srcs[0].Imm != 0xdeadbeef {
		t.Errorf("hex = %#x", p.At(1).Srcs[0].Imm)
	}
	if p.At(2).Srcs[0].Imm != math.Float32bits(-2.5) {
		t.Errorf("-2.5 = %#x", p.At(2).Srcs[0].Imm)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "empty program"},
		{"unknown mnemonic", "frob r1, r2\nexit", "unknown mnemonic"},
		{"undefined label", "bra NOWHERE\nexit", "undefined label"},
		{"duplicate label", "A:\nexit\nA:\nexit", "duplicate label"},
		{"reg out of range", "mov r64, 1\nexit", "out of range"},
		{"pred out of range", "isetp.lt p9, r1, r2\nexit", "out of range"},
		{"bad param", "mov r1, $16\nexit", "bad parameter"},
		{"bad special", "mov r1, %frob\nexit", "unknown special"},
		{"missing cc", "isetp p0, r1, r2\nexit", "condition suffix"},
		{"cc on wrong op", "iadd.lt r1, r2, r3\nexit", "only valid on"},
		{"fallthrough", "mov r1, 2", "fall off the end"},
		{"guarded tail", "mov r1, 1\n@p0 exit", "fall off the end"},
		{"operand count", "iadd r1, r2\nexit", "requires 3 operands"},
		{"pred as value", "iadd r1, p0, r2\nexit", "not valid as a value"},
		{"selp needs pred", "selp r1, r2, r3, r4\nexit", "third operand must be a predicate"},
		{"setp dest", "isetp.lt r1, r2, r3\nexit", "must be a predicate"},
		{"bad mem operand", "ldg r1, r2\nexit", "must be bracketed"},
		{"store form", "stg r1, [r2]\nexit", "must be bracketed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestAssembleComments(t *testing.T) {
	p, err := Assemble(`
// full-line comment
	mov r1, 1   // trailing
	mov r2, 2   # hash comment
	mov r3, 3   ; semicolon comment
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("len = %d, want 4", p.Len())
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble(`
	mov r1, 0
L: iadd r1, r1, 1
	isetp.lt p0, r1, 3
	@p0 bra L
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.At(3).Target != 1 {
		t.Errorf("target = %d, want 1", p.At(3).Target)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
.kernel round
	mov r1, %tid.x
	isetp.ge p0, r1, 16
	@p0 bra SKIP
	imul r2, r1, 3
	bra END
SKIP:
	iadd r2, r1, 100
END:
	stg [r2], r1
	exit
`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	text := Disassemble(p1)
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassembling disassembly: %v\n%s", err, text)
	}
	if p1.Len() != p2.Len() {
		t.Fatalf("length changed: %d -> %d", p1.Len(), p2.Len())
	}
	for i := 0; i < p1.Len(); i++ {
		a, b := p1.At(i), p2.At(i)
		if a.Op != b.Op || a.Target != b.Target || a.RPC != b.RPC {
			t.Errorf("inst %d: %v vs %v", i, a, b)
		}
	}
}
