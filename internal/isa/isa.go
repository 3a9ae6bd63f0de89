// Package isa defines the SIMT instruction set executed by the simulator.
//
// The ISA is a small RISC-style, PTX-flavoured instruction set: 32-bit
// integer and floating-point ALU operations, special-function operations
// (sin, cos, ex2, lg2, rsqrt, rcp, sqrt), global/shared memory accesses,
// predicated branches, and a CTA-wide barrier. Every thread owns up to 64
// general-purpose 4-byte registers and 8 one-bit predicate registers.
//
// Instructions are classified into the three execution-pipeline classes the
// paper's baseline GPU provides (arithmetic/logic, memory, special-function)
// plus a control class handled by the front end.
package isa

import "fmt"

// Opcode enumerates every operation in the ISA.
type Opcode uint8

// Integer ALU opcodes.
const (
	OpNop Opcode = iota
	OpMov        // mov rd, a       : rd = a
	OpIAdd
	OpISub
	OpIMul
	OpIMad // imad rd, a, b, c : rd = a*b + c
	OpIDiv // long-latency integer divide
	OpIRem
	OpIMin
	OpIMax
	OpIAbs
	OpAnd
	OpOr
	OpXor
	OpNot
	OpShl
	OpShr   // logical shift right
	OpSra   // arithmetic shift right
	OpISetP // isetp.cc pd, a, b : pd = a cc b (signed)
	OpSelP  // selp rd, a, b, pc : rd = pc ? a : b

	// Floating-point ALU opcodes (operate on IEEE-754 single bits).
	OpFAdd
	OpFSub
	OpFMul
	OpFFma // ffma rd, a, b, c : rd = a*b + c
	OpFDiv // long-latency float divide (ALU pipe, iterative)
	OpFMin
	OpFMax
	OpFAbs
	OpFNeg
	OpFSetP
	OpI2F // signed int -> float
	OpF2I // float -> signed int (truncate)

	// Special-function opcodes (SFU pipeline).
	OpSin   // sin(a), a in radians
	OpCos   // cos(a)
	OpEx2   // 2**a
	OpLg2   // log2(a)
	OpRsqrt // 1/sqrt(a)
	OpRcp   // 1/a
	OpSqrt  // sqrt(a)

	// Memory opcodes.
	OpLdGlobal // ldg rd, [ra+imm]
	OpStGlobal // stg [ra+imm], rv
	OpLdShared // lds rd, [ra+imm]
	OpStShared // sts [ra+imm], rv

	// Control opcodes.
	OpBra  // bra TARGET (predicated for conditional branches)
	OpExit // thread exit
	OpBar  // bar.sync: CTA-wide barrier

	// OpVMov is the special register-to-register move the hardware injects
	// to decompress a compressed destination register before a divergent
	// partial update (paper §3.3). It ignores the active mask. It never
	// appears in assembled programs; the SM pipeline synthesises it.
	OpVMov

	opcodeCount
)

var opcodeNames = [...]string{
	OpNop: "nop", OpMov: "mov",
	OpIAdd: "iadd", OpISub: "isub", OpIMul: "imul", OpIMad: "imad",
	OpIDiv: "idiv", OpIRem: "irem", OpIMin: "imin", OpIMax: "imax", OpIAbs: "iabs",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNot: "not",
	OpShl: "shl", OpShr: "shr", OpSra: "sra",
	OpISetP: "isetp", OpSelP: "selp",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFFma: "ffma",
	OpFDiv: "fdiv", OpFMin: "fmin", OpFMax: "fmax", OpFAbs: "fabs", OpFNeg: "fneg",
	OpFSetP: "fsetp", OpI2F: "i2f", OpF2I: "f2i",
	OpSin: "sin", OpCos: "cos", OpEx2: "ex2", OpLg2: "lg2",
	OpRsqrt: "rsqrt", OpRcp: "rcp", OpSqrt: "sqrt",
	OpLdGlobal: "ldg", OpStGlobal: "stg", OpLdShared: "lds", OpStShared: "sts",
	OpBra: "bra", OpExit: "exit", OpBar: "bar",
	OpVMov: "vmov",
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Class identifies the execution pipeline an instruction uses.
type Class uint8

// Pipeline classes.
const (
	ClassALU  Class = iota // integer/FP arithmetic and logic
	ClassSFU               // special-function unit
	ClassMem               // load/store pipeline
	ClassCtrl              // branches, exit, barrier (front-end handled)
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassSFU:
		return "sfu"
	case ClassMem:
		return "mem"
	case ClassCtrl:
		return "ctrl"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the execution-pipeline class of op.
func ClassOf(op Opcode) Class {
	switch {
	case op >= OpSin && op <= OpSqrt:
		return ClassSFU
	case op >= OpLdGlobal && op <= OpStShared:
		return ClassMem
	case op >= OpBra && op <= OpBar:
		return ClassCtrl
	default:
		return ClassALU
	}
}

// CmpOp is the comparison condition used by isetp/fsetp.
type CmpOp uint8

// Comparison conditions.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String returns the condition suffix ("eq", "lt", ...).
func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// Eval reports whether the signed comparison a <c> b holds.
func (c CmpOp) Eval(a, b int32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// EvalF reports whether the float comparison a <c> b holds.
func (c CmpOp) EvalF(a, b float32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// Special enumerates the read-only special registers visible to threads.
type Special uint8

// Special registers.
const (
	SpecTidX Special = iota
	SpecTidY
	SpecCtaIDX
	SpecCtaIDY
	SpecNTidX  // CTA width (threads)
	SpecNTidY  // CTA height
	SpecNCtaX  // grid width (CTAs)
	SpecNCtaY  // grid height
	SpecLaneID // lane within warp
	SpecWarpID // warp within CTA

	specialCount
)

var specialNames = [...]string{
	"%tid.x", "%tid.y", "%ctaid.x", "%ctaid.y",
	"%ntid.x", "%ntid.y", "%nctaid.x", "%nctaid.y",
	"%laneid", "%warpid",
}

// String returns the assembly spelling ("%tid.x", ...).
func (s Special) String() string {
	if int(s) < len(specialNames) {
		return specialNames[s]
	}
	return fmt.Sprintf("%%spec(%d)", uint8(s))
}

// SpecialByName maps assembly spellings to Special values.
var SpecialByName = func() map[string]Special {
	m := make(map[string]Special, specialCount)
	for i := Special(0); i < specialCount; i++ {
		m[i.String()] = i
	}
	return m
}()

// OperandKind discriminates the source/destination operand forms.
type OperandKind uint8

// Operand kinds.
const (
	OpdNone    OperandKind = iota
	OpdReg                 // general-purpose vector register r0..r63
	OpdPred                // predicate register p0..p7
	OpdImm                 // 32-bit immediate (raw bits; integer or float)
	OpdSpecial             // special register (%tid.x, ...)
	OpdParam               // kernel parameter $0..$15 (uniform 32-bit value)
)

// Operand is one instruction operand.
type Operand struct {
	Kind    OperandKind
	Reg     uint8   // register or predicate index, or parameter index
	Imm     uint32  // immediate raw bits
	Special Special // valid when Kind == OpdSpecial
}

// Reg returns a vector-register operand.
func Reg(i uint8) Operand { return Operand{Kind: OpdReg, Reg: i} }

// Pred returns a predicate-register operand.
func Pred(i uint8) Operand { return Operand{Kind: OpdPred, Reg: i} }

// Imm returns an immediate operand holding the raw 32-bit pattern v.
func Imm(v uint32) Operand { return Operand{Kind: OpdImm, Imm: v} }

// Param returns a kernel-parameter operand.
func Param(i uint8) Operand { return Operand{Kind: OpdParam, Reg: i} }

// Spec returns a special-register operand.
func Spec(s Special) Operand { return Operand{Kind: OpdSpecial, Special: s} }

// IsUniform reports whether the operand necessarily holds the same value in
// every lane of a warp (immediates and kernel parameters). Special registers
// such as %tid.x vary per lane; %ctaid and %ntid are warp-uniform.
func (o Operand) IsUniform() bool {
	switch o.Kind {
	case OpdImm, OpdParam:
		return true
	case OpdSpecial:
		switch o.Special {
		case SpecCtaIDX, SpecCtaIDY, SpecNTidX, SpecNTidY, SpecNCtaX, SpecNCtaY, SpecWarpID:
			return true
		}
	}
	return false
}

// String renders the operand in assembly syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpdNone:
		return "_"
	case OpdReg:
		return fmt.Sprintf("r%d", o.Reg)
	case OpdPred:
		return fmt.Sprintf("p%d", o.Reg)
	case OpdImm:
		return fmt.Sprintf("0x%x", o.Imm)
	case OpdSpecial:
		return o.Special.String()
	case OpdParam:
		return fmt.Sprintf("$%d", o.Reg)
	}
	return "?"
}

// Guard is the optional predicate guard of an instruction (@p0 / @!p0).
type Guard struct {
	Reg uint8
	Neg bool
	On  bool // false: instruction is unguarded
}

// String renders the guard prefix, empty if unguarded.
func (g Guard) String() string {
	if !g.On {
		return ""
	}
	if g.Neg {
		return fmt.Sprintf("@!p%d ", g.Reg)
	}
	return fmt.Sprintf("@p%d ", g.Reg)
}

// Instruction is one decoded static instruction.
type Instruction struct {
	Op    Opcode
	Cmp   CmpOp // comparison condition for isetp/fsetp
	Guard Guard

	Dst  Operand    // destination register or predicate (OpdNone if none)
	Srcs [3]Operand // source operands; Srcs[:NSrc] are valid
	NSrc uint8

	Off int32 // address offset for memory ops

	Target int // branch target PC (instruction index), -1 if none
	RPC    int // reconvergence PC for branches (immediate post-dominator), -1 if none

	Line int // 1-based source line, for diagnostics
}

// Class returns the execution-pipeline class of the instruction.
func (in *Instruction) Class() Class { return ClassOf(in.Op) }

// IsLoad reports whether the instruction reads memory.
func (in *Instruction) IsLoad() bool { return in.Op == OpLdGlobal || in.Op == OpLdShared }

// IsStore reports whether the instruction writes memory.
func (in *Instruction) IsStore() bool { return in.Op == OpStGlobal || in.Op == OpStShared }

// IsGlobalMem reports whether the instruction accesses global memory.
func (in *Instruction) IsGlobalMem() bool { return in.Op == OpLdGlobal || in.Op == OpStGlobal }

// WritesReg reports whether the instruction writes a vector register, and
// which one.
func (in *Instruction) WritesReg() (uint8, bool) {
	if in.Dst.Kind == OpdReg {
		return in.Dst.Reg, true
	}
	return 0, false
}

// WritesPred reports whether the instruction writes a predicate register.
func (in *Instruction) WritesPred() (uint8, bool) {
	if in.Dst.Kind == OpdPred {
		return in.Dst.Reg, true
	}
	return 0, false
}

// HasNonUniformNonRegSource reports whether any non-register source varies
// per lane (e.g. %tid.x). Such an instruction can never be scalar-eligible
// even if all its register sources hold scalar values. Predicate sources
// (selp) are excluded: their uniformity is tracked separately.
func (in *Instruction) HasNonUniformNonRegSource() bool {
	for i := uint8(0); i < in.NSrc; i++ {
		s := in.Srcs[i]
		if s.Kind != OpdReg && s.Kind != OpdNone && s.Kind != OpdPred && !s.IsUniform() {
			return true
		}
	}
	return false
}

// String renders the instruction in assembly syntax (without label context).
func (in *Instruction) String() string {
	s := in.Guard.String() + in.Op.String()
	if in.Op == OpISetP || in.Op == OpFSetP {
		s += "." + in.Cmp.String()
	}
	switch in.Op {
	case OpBra:
		return fmt.Sprintf("%s @%d", s, in.Target)
	case OpExit, OpBar, OpNop:
		return s
	case OpLdGlobal, OpLdShared:
		return fmt.Sprintf("%s %s, [%s%+d]", s, in.Dst, in.Srcs[0], in.Off)
	case OpStGlobal, OpStShared:
		return fmt.Sprintf("%s [%s%+d], %s", s, in.Srcs[0], in.Off, in.Srcs[1])
	}
	out := s
	if in.Dst.Kind != OpdNone {
		out += " " + in.Dst.String()
	}
	for i := uint8(0); i < in.NSrc; i++ {
		out += ", " + in.Srcs[i].String()
	}
	return out
}

// Limits of the register architecture.
const (
	NumGPRs   = 64 // vector general-purpose registers per thread
	NumPreds  = 8  // predicate registers per thread
	NumParams = 16 // kernel parameters
)

// Latency returns the execution latency of the opcode in cycles, i.e. the
// number of cycles between dispatch and result writeback on the baseline
// pipeline. These follow the Fermi-like model the paper assumes: most ALU
// ops complete in a short fixed pipeline, SFU ops and divides are long.
func Latency(op Opcode) int {
	switch op {
	case OpIDiv, OpIRem:
		return 120 // iterative integer divide (paper: LC's long-latency DIV)
	case OpFDiv:
		return 40
	case OpSin, OpCos, OpEx2, OpLg2, OpRsqrt, OpRcp, OpSqrt:
		return 20
	case OpIMul, OpIMad, OpFFma, OpFMul:
		return 8
	case OpLdGlobal, OpStGlobal, OpLdShared, OpStShared:
		return 0 // memory latency is modelled by the memory subsystem
	default:
		return 6
	}
}
