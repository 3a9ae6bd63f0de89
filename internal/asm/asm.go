// Package asm implements a two-pass assembler for the .gasm SIMT assembly
// language, including control-flow-graph construction and immediate
// post-dominator analysis, which assigns every branch its reconvergence PC
// (the PDOM reconvergence point used by the SIMT stack).
//
// Grammar (one instruction per line):
//
//	// comment, # comment, ; comment
//	.kernel NAME
//	LABEL:
//	[@pN | @!pN] mnemonic operands
//
// Operands: rN (vector register), pN (predicate), $N (kernel parameter),
// %tid.x etc. (special register), integer immediates (decimal, hex, negative)
// and float immediates (containing '.' or 'e', or with an 'f' suffix, stored
// as IEEE-754 bits). Memory operands are written [rN], [rN+imm] or [rN-imm].
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gscalar/internal/isa"
	"gscalar/internal/kernel"
)

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble parses src and returns a Program with resolved branch targets and
// reconvergence PCs.
func Assemble(src string) (*kernel.Program, error) {
	p := &kernel.Program{Name: "kernel", Labels: make(map[string]int)}

	type pendingBranch struct {
		pc    int
		label string
		line  int
	}
	var pending []pendingBranch

	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		ln := lineNo + 1

		if strings.HasPrefix(line, ".kernel") {
			name := strings.TrimSpace(strings.TrimPrefix(line, ".kernel"))
			if name == "" {
				return nil, errf(ln, ".kernel requires a name")
			}
			p.Name = name
			continue
		}

		// Labels (possibly followed by an instruction on the same line).
		for {
			colon := strings.Index(line, ":")
			if colon < 0 || strings.ContainsAny(line[:colon], " \t,[") {
				break
			}
			label := line[:colon]
			if !isIdent(label) {
				return nil, errf(ln, "invalid label %q", label)
			}
			if _, dup := p.Labels[label]; dup {
				return nil, errf(ln, "duplicate label %q", label)
			}
			p.Labels[label] = len(p.Code)
			line = strings.TrimSpace(line[colon+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}

		in, targetLabel, err := parseInstruction(line, ln)
		if err != nil {
			return nil, err
		}
		if targetLabel != "" {
			pending = append(pending, pendingBranch{pc: len(p.Code), label: targetLabel, line: ln})
		}
		p.Code = append(p.Code, in)
	}

	if len(p.Code) == 0 {
		return nil, errf(0, "empty program")
	}

	for _, pb := range pending {
		target, ok := p.Labels[pb.label]
		if !ok {
			return nil, errf(pb.line, "undefined label %q", pb.label)
		}
		if target >= len(p.Code) {
			return nil, errf(pb.line, "label %q points past end of program", pb.label)
		}
		p.Code[pb.pc].Target = target
	}

	if err := validate(p); err != nil {
		return nil, err
	}
	if err := assignRPCs(p); err != nil {
		return nil, err
	}
	p.NumRegs = maxRegUsed(p) + 1
	// Decode metadata once at assembly time, so simulations that share this
	// program across goroutines never build it concurrently.
	p.BuildMeta()
	return p, nil
}

func stripComment(s string) string {
	for _, marker := range []string{"//", "#", ";"} {
		if i := strings.Index(s, marker); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var mnemonics = map[string]isa.Opcode{
	"nop": isa.OpNop, "mov": isa.OpMov,
	"iadd": isa.OpIAdd, "isub": isa.OpISub, "imul": isa.OpIMul, "imad": isa.OpIMad,
	"idiv": isa.OpIDiv, "irem": isa.OpIRem, "imin": isa.OpIMin, "imax": isa.OpIMax,
	"iabs": isa.OpIAbs,
	"and":  isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor, "not": isa.OpNot,
	"shl": isa.OpShl, "shr": isa.OpShr, "sra": isa.OpSra,
	"isetp": isa.OpISetP, "selp": isa.OpSelP,
	"fadd": isa.OpFAdd, "fsub": isa.OpFSub, "fmul": isa.OpFMul, "ffma": isa.OpFFma,
	"fdiv": isa.OpFDiv, "fmin": isa.OpFMin, "fmax": isa.OpFMax,
	"fabs": isa.OpFAbs, "fneg": isa.OpFNeg, "fsetp": isa.OpFSetP,
	"i2f": isa.OpI2F, "f2i": isa.OpF2I,
	"sin": isa.OpSin, "cos": isa.OpCos, "ex2": isa.OpEx2, "lg2": isa.OpLg2,
	"rsqrt": isa.OpRsqrt, "rcp": isa.OpRcp, "sqrt": isa.OpSqrt,
	"ldg": isa.OpLdGlobal, "stg": isa.OpStGlobal,
	"lds": isa.OpLdShared, "sts": isa.OpStShared,
	"bra": isa.OpBra, "exit": isa.OpExit, "bar": isa.OpBar,
}

var cmpByName = map[string]isa.CmpOp{
	"eq": isa.CmpEQ, "ne": isa.CmpNE, "lt": isa.CmpLT,
	"le": isa.CmpLE, "gt": isa.CmpGT, "ge": isa.CmpGE,
}

// srcCount gives the number of source operands per opcode (excluding the
// memory-specific encodings, handled separately).
var srcCount = map[isa.Opcode]int{
	isa.OpNop: 0, isa.OpMov: 1,
	isa.OpIAdd: 2, isa.OpISub: 2, isa.OpIMul: 2, isa.OpIMad: 3,
	isa.OpIDiv: 2, isa.OpIRem: 2, isa.OpIMin: 2, isa.OpIMax: 2, isa.OpIAbs: 1,
	isa.OpAnd: 2, isa.OpOr: 2, isa.OpXor: 2, isa.OpNot: 1,
	isa.OpShl: 2, isa.OpShr: 2, isa.OpSra: 2,
	isa.OpISetP: 2, isa.OpSelP: 3,
	isa.OpFAdd: 2, isa.OpFSub: 2, isa.OpFMul: 2, isa.OpFFma: 3,
	isa.OpFDiv: 2, isa.OpFMin: 2, isa.OpFMax: 2,
	isa.OpFAbs: 1, isa.OpFNeg: 1, isa.OpFSetP: 2,
	isa.OpI2F: 1, isa.OpF2I: 1,
	isa.OpSin: 1, isa.OpCos: 1, isa.OpEx2: 1, isa.OpLg2: 1,
	isa.OpRsqrt: 1, isa.OpRcp: 1, isa.OpSqrt: 1,
	isa.OpExit: 0, isa.OpBar: 0,
}

func parseInstruction(line string, ln int) (isa.Instruction, string, error) {
	in := isa.Instruction{Target: -1, RPC: -1, Line: ln}

	// Optional guard.
	if strings.HasPrefix(line, "@") {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return in, "", errf(ln, "guard with no instruction")
		}
		g := line[1:sp]
		line = strings.TrimSpace(line[sp:])
		neg := strings.HasPrefix(g, "!")
		g = strings.TrimPrefix(g, "!")
		if len(g) != 2 || g[0] != 'p' || g[1] < '0' || g[1] > '7' {
			return in, "", errf(ln, "invalid guard %q", g)
		}
		in.Guard = isa.Guard{On: true, Neg: neg, Reg: g[1] - '0'}
	}

	// Mnemonic (with optional .cc suffix for setp).
	sp := strings.IndexAny(line, " \t")
	mn := line
	rest := ""
	if sp >= 0 {
		mn = line[:sp]
		rest = strings.TrimSpace(line[sp:])
	}
	if dot := strings.Index(mn, "."); dot >= 0 {
		cc, ok := cmpByName[mn[dot+1:]]
		if !ok {
			return in, "", errf(ln, "unknown condition %q", mn[dot+1:])
		}
		in.Cmp = cc
		mn = mn[:dot]
		if mn != "isetp" && mn != "fsetp" {
			return in, "", errf(ln, "condition suffix only valid on isetp/fsetp")
		}
	}
	op, ok := mnemonics[mn]
	if !ok {
		return in, "", errf(ln, "unknown mnemonic %q", mn)
	}
	in.Op = op
	if (op == isa.OpISetP || op == isa.OpFSetP) && !strings.Contains(line, ".") {
		return in, "", errf(ln, "%s requires a condition suffix (e.g. %s.lt)", mn, mn)
	}

	switch op {
	case isa.OpBra:
		if rest == "" {
			return in, "", errf(ln, "bra requires a target label")
		}
		if !isIdent(rest) {
			return in, "", errf(ln, "invalid branch target %q", rest)
		}
		return in, rest, nil

	case isa.OpExit, isa.OpBar, isa.OpNop:
		if rest != "" {
			return in, "", errf(ln, "%s takes no operands", mn)
		}
		return in, "", nil

	case isa.OpLdGlobal, isa.OpLdShared:
		// ldg rd, [ra+imm]
		parts := splitOperands(rest)
		if len(parts) != 2 {
			return in, "", errf(ln, "%s requires 'rd, [ra+imm]'", mn)
		}
		dst, err := parseOperand(parts[0], ln)
		if err != nil {
			return in, "", err
		}
		if dst.Kind != isa.OpdReg {
			return in, "", errf(ln, "load destination must be a register")
		}
		addr, off, err := parseMemOperand(parts[1], ln)
		if err != nil {
			return in, "", err
		}
		in.Dst = dst
		in.Srcs[0] = addr
		in.NSrc = 1
		in.Off = off
		return in, "", nil

	case isa.OpStGlobal, isa.OpStShared:
		// stg [ra+imm], rv
		parts := splitOperands(rest)
		if len(parts) != 2 {
			return in, "", errf(ln, "%s requires '[ra+imm], rv'", mn)
		}
		addr, off, err := parseMemOperand(parts[0], ln)
		if err != nil {
			return in, "", err
		}
		val, err := parseOperand(parts[1], ln)
		if err != nil {
			return in, "", err
		}
		in.Srcs[0] = addr
		in.Srcs[1] = val
		in.NSrc = 2
		in.Off = off
		return in, "", nil
	}

	// Regular register-form instructions: dst, src...
	parts := splitOperands(rest)
	want, ok := srcCount[op]
	if !ok {
		return in, "", errf(ln, "internal: no operand count for %s", mn)
	}
	if len(parts) != want+1 {
		return in, "", errf(ln, "%s requires %d operands, got %d", mn, want+1, len(parts))
	}
	dst, err := parseOperand(parts[0], ln)
	if err != nil {
		return in, "", err
	}
	wantPredDst := op == isa.OpISetP || op == isa.OpFSetP
	if wantPredDst && dst.Kind != isa.OpdPred {
		return in, "", errf(ln, "%s destination must be a predicate", mn)
	}
	if !wantPredDst && dst.Kind != isa.OpdReg {
		return in, "", errf(ln, "%s destination must be a register", mn)
	}
	in.Dst = dst
	for i := 0; i < want; i++ {
		src, err := parseOperand(parts[i+1], ln)
		if err != nil {
			return in, "", err
		}
		// selp's third source is the selecting predicate; all other sources
		// must be values.
		if op == isa.OpSelP && i == 2 {
			if src.Kind != isa.OpdPred {
				return in, "", errf(ln, "selp's third operand must be a predicate")
			}
		} else if src.Kind == isa.OpdPred {
			return in, "", errf(ln, "predicate %s not valid as a value operand", parts[i+1])
		}
		in.Srcs[i] = src
	}
	in.NSrc = uint8(want)
	return in, "", nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseMemOperand(s string, ln int) (isa.Operand, int32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return isa.Operand{}, 0, errf(ln, "memory operand must be bracketed, got %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	var off int32
	regPart := inner
	// Split on the last +/- that is not the leading sign.
	for i := len(inner) - 1; i > 0; i-- {
		if inner[i] == '+' || inner[i] == '-' {
			o, err := strconv.ParseInt(strings.TrimSpace(inner[i:]), 10, 32)
			if err != nil {
				return isa.Operand{}, 0, errf(ln, "bad address offset in %q", s)
			}
			off = int32(o)
			regPart = strings.TrimSpace(inner[:i])
			break
		}
	}
	reg, err := parseOperand(regPart, ln)
	if err != nil {
		return isa.Operand{}, 0, err
	}
	if reg.Kind != isa.OpdReg {
		return isa.Operand{}, 0, errf(ln, "address base must be a register, got %q", regPart)
	}
	return reg, off, nil
}

func parseOperand(s string, ln int) (isa.Operand, error) {
	if s == "" {
		return isa.Operand{}, errf(ln, "empty operand")
	}
	switch s[0] {
	case 'r':
		if n, err := strconv.Atoi(s[1:]); err == nil {
			if n < 0 || n >= isa.NumGPRs {
				return isa.Operand{}, errf(ln, "register %s out of range (0..%d)", s, isa.NumGPRs-1)
			}
			return isa.Reg(uint8(n)), nil
		}
	case 'p':
		if n, err := strconv.Atoi(s[1:]); err == nil {
			if n < 0 || n >= isa.NumPreds {
				return isa.Operand{}, errf(ln, "predicate %s out of range (0..%d)", s, isa.NumPreds-1)
			}
			return isa.Pred(uint8(n)), nil
		}
	case '$':
		n, err := strconv.Atoi(s[1:])
		if err != nil || n < 0 || n >= isa.NumParams {
			return isa.Operand{}, errf(ln, "bad parameter %q (want $0..$%d)", s, isa.NumParams-1)
		}
		return isa.Param(uint8(n)), nil
	case '%':
		sp, ok := isa.SpecialByName[s]
		if !ok {
			return isa.Operand{}, errf(ln, "unknown special register %q", s)
		}
		return isa.Spec(sp), nil
	}
	return parseImmediate(s, ln)
}

func parseImmediate(s string, ln int) (isa.Operand, error) {
	// Float immediate: has '.' or exponent, or trailing 'f'.
	isFloat := strings.ContainsAny(s, ".")
	if strings.HasSuffix(s, "f") && !strings.HasPrefix(s, "0x") {
		isFloat = true
		s = strings.TrimSuffix(s, "f")
	}
	if !isFloat && strings.ContainsAny(s, "eE") && !strings.HasPrefix(s, "0x") {
		isFloat = true
	}
	if isFloat {
		f, err := strconv.ParseFloat(s, 32)
		if err != nil {
			return isa.Operand{}, errf(ln, "bad float immediate %q", s)
		}
		return isa.Imm(math.Float32bits(float32(f))), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return isa.Operand{}, errf(ln, "bad operand %q", s)
	}
	if v < math.MinInt32 || v > math.MaxUint32 {
		return isa.Operand{}, errf(ln, "immediate %q out of 32-bit range", s)
	}
	return isa.Imm(uint32(v)), nil
}

func maxRegUsed(p *kernel.Program) int {
	maxReg := -1
	consider := func(o isa.Operand) {
		if o.Kind == isa.OpdReg && int(o.Reg) > maxReg {
			maxReg = int(o.Reg)
		}
	}
	for i := range p.Code {
		in := &p.Code[i]
		consider(in.Dst)
		for s := uint8(0); s < in.NSrc; s++ {
			consider(in.Srcs[s])
		}
	}
	return maxReg
}

// validate enforces structural rules: the program must not fall off the end,
// and every unconditional path must terminate in exit.
func validate(p *kernel.Program) error {
	last := &p.Code[len(p.Code)-1]
	fallsThrough := !(last.Op == isa.OpExit && !last.Guard.On) &&
		!(last.Op == isa.OpBra && !last.Guard.On)
	if fallsThrough {
		return errf(last.Line, "program can fall off the end; it must end with an unguarded exit or bra")
	}
	return nil
}

// Disassemble renders the program as .gasm text with synthetic labels.
func Disassemble(p *kernel.Program) string {
	// Collect branch targets for labelling.
	targets := make(map[int]string)
	for i := range p.Code {
		if t := p.Code[i].Target; t >= 0 {
			if _, ok := targets[t]; !ok {
				targets[t] = fmt.Sprintf("L%d", t)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n", p.Name)
	for pc := range p.Code {
		if lbl, ok := targets[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		in := &p.Code[pc]
		if in.Op == isa.OpBra {
			fmt.Fprintf(&b, "\t%sbra %s", in.Guard, targets[in.Target])
			if in.RPC >= 0 {
				fmt.Fprintf(&b, "\t// rpc=%d", in.RPC)
			}
			b.WriteByte('\n')
			continue
		}
		fmt.Fprintf(&b, "\t%s\n", in.String())
	}
	return b.String()
}
