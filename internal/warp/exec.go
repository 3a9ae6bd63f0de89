package warp

import (
	"fmt"
	"math"
	"math/bits"

	"gscalar/internal/isa"
)

// Execute functionally executes the warp's next instruction and advances the
// SIMT stack. It returns an Outcome describing the dynamic instruction for
// the timing and power models. Execute returns an error only for simulator
// bugs or malformed programs (e.g. a PC out of range), never for ordinary
// program behaviour.
//
// The per-lane loops below are structured for speed: every source operand is
// resolved once per instruction into a flat lane vector or a uniform scalar
// (srcOp), active lanes are visited by bit-iterating the mask (inactive
// lanes cost nothing, which matters on divergent workloads), and predicated
// merges are mask selects rather than per-lane branches.
func (w *Warp) Execute(ctx *Context) (Outcome, error) {
	pc, ok := w.NextPC()
	if !ok {
		return Outcome{}, fmt.Errorf("warp: execute on finished warp %s", w)
	}
	if pc < 0 || pc >= ctx.Prog.Len() {
		return Outcome{}, fmt.Errorf("warp: pc %d out of range [0,%d) in %s", pc, ctx.Prog.Len(), w)
	}
	top := &w.stack[len(w.stack)-1]
	in := ctx.Prog.At(pc)

	active := top.Mask
	if in.Guard.On {
		active &= w.PredMask(in.Guard.Reg, in.Guard.Neg)
	}

	out := Outcome{
		PC:     pc,
		Inst:   in,
		Active: active,
		DstReg: -1,
	}
	out.Divergent = active != w.LiveMask

	switch in.Op {
	case isa.OpBra:
		w.execBranch(in, top, active)
		return out, nil

	case isa.OpExit:
		w.execExit(active, top, &out)
		return out, nil

	case isa.OpBar:
		top.PC = pc + 1
		w.status = StatusBarrier
		out.AtBarrier = true
		return out, nil

	case isa.OpNop, isa.OpVMov:
		top.PC = pc + 1
		return out, nil
	}

	// Value-producing and memory instructions.
	top.PC = pc + 1
	switch {
	case in.IsLoad():
		if err := w.execLoad(ctx, in, active, &out); err != nil {
			return out, err
		}
	case in.IsStore():
		if err := w.execStore(ctx, in, active, &out); err != nil {
			return out, err
		}
	case in.Dst.Kind == isa.OpdPred:
		w.execSetP(ctx, in, active)
	default:
		w.execALU(ctx, in, active, &out)
	}
	return out, nil
}

func (w *Warp) execBranch(in *isa.Instruction, top *StackEntry, taken Mask) {
	pc := top.PC
	switch {
	case taken == top.Mask:
		// Uniformly taken.
		top.PC = in.Target
	case taken == 0:
		// Uniformly not taken.
		top.PC = pc + 1
	default:
		// Divergent: the executing entry becomes the reconvergence entry,
		// and the two sides are pushed (not-taken below taken, matching the
		// GPGPU-Sim PDOM stack).
		top.PC = in.RPC // may be -1: both sides exit before reconverging
		w.stack = append(w.stack,
			StackEntry{PC: pc + 1, RPC: in.RPC, Mask: top.Mask &^ taken},
			StackEntry{PC: in.Target, RPC: in.RPC, Mask: taken},
		)
	}
}

func (w *Warp) execExit(active Mask, top *StackEntry, out *Outcome) {
	w.exited |= active
	// Remove exited lanes from every stack entry.
	for i := range w.stack {
		w.stack[i].Mask &^= active
	}
	if top.Mask != 0 {
		// Guarded exit with surviving lanes: they continue at pc+1.
		top.PC = out.PC + 1
	}
	if _, ok := w.NextPC(); !ok {
		out.Exited = true
	}
}

// srcOp is a source operand resolved once per instruction: a per-lane
// vector (vec non-nil) or a warp-uniform scalar.
type srcOp struct {
	vec []uint32
	imm uint32
}

func (s srcOp) at(lane int) uint32 {
	if s.vec != nil {
		return s.vec[lane]
	}
	return s.imm
}

// resolve maps an operand to its srcOp. Per-lane specials resolve to the
// warp's resident coordinate vectors (or the shared lane-index table), so
// no per-lane switch runs inside the execution loops.
func (w *Warp) resolve(ctx *Context, o isa.Operand) srcOp {
	switch o.Kind {
	case isa.OpdReg:
		return srcOp{vec: w.RegVec(o.Reg)}
	case isa.OpdImm:
		return srcOp{imm: o.Imm}
	case isa.OpdParam:
		return srcOp{imm: ctx.Launch.Params[o.Reg]}
	case isa.OpdSpecial:
		switch o.Special {
		case isa.SpecTidX:
			return srcOp{vec: w.tidX}
		case isa.SpecTidY:
			return srcOp{vec: w.tidY}
		case isa.SpecCtaIDX:
			return srcOp{imm: w.ctaidX}
		case isa.SpecCtaIDY:
			return srcOp{imm: w.ctaidY}
		case isa.SpecNTidX:
			return srcOp{imm: uint32(ctx.Launch.Block.X)}
		case isa.SpecNTidY:
			return srcOp{imm: uint32(ctx.Launch.Block.Y)}
		case isa.SpecNCtaX:
			return srcOp{imm: uint32(ctx.Launch.Grid.X)}
		case isa.SpecNCtaY:
			return srcOp{imm: uint32(ctx.Launch.Grid.Y)}
		case isa.SpecLaneID:
			return srcOp{vec: laneIndex[:w.Width]}
		case isa.SpecWarpID:
			return srcOp{imm: uint32(w.ID)}
		}
	}
	return srcOp{}
}

func (w *Warp) execSetP(ctx *Context, in *isa.Instruction, active Mask) {
	p := in.Dst.Reg
	a := w.resolve(ctx, in.Srcs[0])
	b := w.resolve(ctx, in.Srcs[1])
	var set Mask
	if in.Op == isa.OpISetP {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if in.Cmp.Eval(int32(a.at(lane)), int32(b.at(lane))) {
				set |= Mask(1) << lane
			}
		}
	} else {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if in.Cmp.EvalF(math.Float32frombits(a.at(lane)), math.Float32frombits(b.at(lane))) {
				set |= Mask(1) << lane
			}
		}
	}
	// Branchless predicated merge: only active lanes take the new value.
	w.preds[p] = (w.preds[p] &^ active) | set
}

func (w *Warp) execALU(ctx *Context, in *isa.Instruction, active Mask, out *Outcome) {
	dst := in.Dst.Reg
	vec := w.RegVec(dst)
	var a, b, c srcOp
	if in.NSrc > 0 {
		a = w.resolve(ctx, in.Srcs[0])
	}
	if in.NSrc > 1 {
		b = w.resolve(ctx, in.Srcs[1])
	}
	if in.NSrc > 2 && in.Op != isa.OpSelP {
		c = w.resolve(ctx, in.Srcs[2])
	}

	// Dedicated flat-slice loops for the hottest opcodes; everything else
	// goes through the generic per-lane evaluator (operands still hoisted).
	switch in.Op {
	case isa.OpMov:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = a.at(lane)
		}
	case isa.OpIAdd:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = a.at(lane) + b.at(lane)
		}
	case isa.OpISub:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = a.at(lane) - b.at(lane)
		}
	case isa.OpIMul:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = uint32(int32(a.at(lane)) * int32(b.at(lane)))
		}
	case isa.OpIMad:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = uint32(int32(a.at(lane))*int32(b.at(lane)) + int32(c.at(lane)))
		}
	case isa.OpAnd:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = a.at(lane) & b.at(lane)
		}
	case isa.OpShl:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = a.at(lane) << (b.at(lane) & 31)
		}
	case isa.OpShr:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = a.at(lane) >> (b.at(lane) & 31)
		}
	case isa.OpSelP:
		// Branchless select on the predicate's lane mask.
		pm := w.preds[in.Srcs[2].Reg]
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			av, bv := a.at(lane), b.at(lane)
			sel := uint32(-((pm >> lane) & 1))
			vec[lane] = bv ^ ((av ^ bv) & sel)
		}
	case isa.OpFAdd:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = fbits(ffrom(a.at(lane)) + ffrom(b.at(lane)))
		}
	case isa.OpFMul:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = fbits(ffrom(a.at(lane)) * ffrom(b.at(lane)))
		}
	case isa.OpFFma:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = fbits(float32(float64(ffrom(a.at(lane)))*float64(ffrom(b.at(lane))) + float64(ffrom(c.at(lane)))))
		}
	default:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			vec[lane] = aluEval(in, a.at(lane), b.at(lane), c.at(lane))
		}
	}
	out.DstReg = int(dst)
	out.DstVec = vec
}

// aluEval evaluates one lane of a generic ALU instruction from its
// already-fetched operand values. OpSelP never reaches here (execALU handles
// it with the predicate mask).
func aluEval(in *isa.Instruction, a, b, c uint32) uint32 {
	switch in.Op {
	case isa.OpMov:
		return a
	case isa.OpIAdd:
		return a + b
	case isa.OpISub:
		return a - b
	case isa.OpIMul:
		return uint32(int32(a) * int32(b))
	case isa.OpIMad:
		return uint32(int32(a)*int32(b) + int32(c))
	case isa.OpIDiv:
		if b == 0 {
			return 0xFFFFFFFF
		}
		return uint32(int32(a) / int32(b))
	case isa.OpIRem:
		if b == 0 {
			return a
		}
		return uint32(int32(a) % int32(b))
	case isa.OpIMin:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case isa.OpIMax:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case isa.OpIAbs:
		if int32(a) < 0 {
			return uint32(-int32(a))
		}
		return a
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpNot:
		return ^a
	case isa.OpShl:
		return a << (b & 31)
	case isa.OpShr:
		return a >> (b & 31)
	case isa.OpSra:
		return uint32(int32(a) >> (b & 31))
	case isa.OpFAdd:
		return fbits(ffrom(a) + ffrom(b))
	case isa.OpFSub:
		return fbits(ffrom(a) - ffrom(b))
	case isa.OpFMul:
		return fbits(ffrom(a) * ffrom(b))
	case isa.OpFFma:
		return fbits(float32(float64(ffrom(a))*float64(ffrom(b)) + float64(ffrom(c))))
	case isa.OpFDiv:
		return fbits(ffrom(a) / ffrom(b))
	case isa.OpFMin:
		return fbits(float32(math.Min(float64(ffrom(a)), float64(ffrom(b)))))
	case isa.OpFMax:
		return fbits(float32(math.Max(float64(ffrom(a)), float64(ffrom(b)))))
	case isa.OpFAbs:
		return a &^ 0x80000000
	case isa.OpFNeg:
		return a ^ 0x80000000
	case isa.OpI2F:
		return fbits(float32(int32(a)))
	case isa.OpF2I:
		f := ffrom(a)
		switch {
		case math.IsNaN(float64(f)):
			return 0
		case f >= math.MaxInt32:
			return uint32(math.MaxInt32)
		case f <= math.MinInt32:
			return 0x80000000 // int32 min
		}
		return uint32(int32(f))
	case isa.OpSin:
		return fbits(float32(math.Sin(float64(ffrom(a)))))
	case isa.OpCos:
		return fbits(float32(math.Cos(float64(ffrom(a)))))
	case isa.OpEx2:
		return fbits(float32(math.Exp2(float64(ffrom(a)))))
	case isa.OpLg2:
		return fbits(float32(math.Log2(float64(ffrom(a)))))
	case isa.OpRsqrt:
		return fbits(float32(1 / math.Sqrt(float64(ffrom(a)))))
	case isa.OpRcp:
		return fbits(1 / ffrom(a))
	case isa.OpSqrt:
		return fbits(float32(math.Sqrt(float64(ffrom(a)))))
	}
	return 0
}

func (w *Warp) execLoad(ctx *Context, in *isa.Instruction, active Mask, out *Outcome) error {
	dst := in.Dst.Reg
	vec := w.RegVec(dst)
	out.Addrs = w.addrVec(ctx)
	base := w.resolve(ctx, in.Srcs[0])
	off := uint32(in.Off)
	if in.Op == isa.OpLdGlobal {
		if ctx.StoreBuf.ReadThrough() {
			// Relaxed epoch mode: stores stay buffered for up to an epoch, so
			// a load must see this SM's own pending stores (same-SM RAW
			// through global memory). ReadThrough is false whenever the
			// overlay is disabled or empty, keeping the per-cycle schedules'
			// hot path below branch-free through the buffer.
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				addr := base.at(lane) + off
				out.Addrs[lane] = addr
				if v, ok := ctx.StoreBuf.Load32(addr); ok {
					vec[lane] = v
				} else {
					vec[lane] = ctx.Global.Load32(addr)
				}
			}
		} else {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				addr := base.at(lane) + off
				out.Addrs[lane] = addr
				vec[lane] = ctx.Global.Load32(addr)
			}
		}
	} else {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			addr := base.at(lane) + off
			out.Addrs[lane] = addr
			v, err := loadShared(ctx, addr)
			if err != nil {
				return fmt.Errorf("%v at pc %d line %d", err, out.PC, in.Line)
			}
			vec[lane] = v
		}
	}
	out.DstReg = int(dst)
	out.DstVec = vec
	out.IsMem = true
	return nil
}

func (w *Warp) execStore(ctx *Context, in *isa.Instruction, active Mask, out *Outcome) error {
	out.Addrs = w.addrVec(ctx)
	base := w.resolve(ctx, in.Srcs[0])
	val := w.resolve(ctx, in.Srcs[1])
	off := uint32(in.Off)
	if in.Op == isa.OpStGlobal {
		if ctx.StoreBuf != nil {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				addr := base.at(lane) + off
				out.Addrs[lane] = addr
				ctx.StoreBuf.Store32(addr, val.at(lane))
			}
		} else {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(m)
				addr := base.at(lane) + off
				out.Addrs[lane] = addr
				ctx.Global.Store32(addr, val.at(lane))
			}
		}
	} else {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			addr := base.at(lane) + off
			out.Addrs[lane] = addr
			if err := storeShared(ctx, addr, val.at(lane)); err != nil {
				return fmt.Errorf("%v at pc %d line %d", err, out.PC, in.Line)
			}
		}
	}
	out.IsMem = true
	out.IsStore = true
	return nil
}

// addrVec returns the per-lane address vector for a memory outcome: the
// caller-provided scratch when available, a fresh allocation otherwise.
// Inactive lanes may hold stale values; every consumer masks by Active.
func (w *Warp) addrVec(ctx *Context) []uint32 {
	if len(ctx.AddrScratch) >= w.Width {
		return ctx.AddrScratch[:w.Width]
	}
	return make([]uint32, w.Width)
}

func loadShared(ctx *Context, addr uint32) (uint32, error) {
	i := addr / 4
	if int(i) >= len(ctx.Shared) {
		return 0, fmt.Errorf("warp: shared load at %#x outside %d-byte shared memory", addr, len(ctx.Shared)*4)
	}
	return ctx.Shared[i], nil
}

func storeShared(ctx *Context, addr uint32, v uint32) error {
	i := addr / 4
	if int(i) >= len(ctx.Shared) {
		return fmt.Errorf("warp: shared store at %#x outside %d-byte shared memory", addr, len(ctx.Shared)*4)
	}
	ctx.Shared[i] = v
	return nil
}

func ffrom(bits uint32) float32 { return math.Float32frombits(bits) }
func fbits(f float32) uint32    { return math.Float32bits(f) }
