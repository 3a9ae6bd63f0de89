// Package warp implements per-warp architectural state: thread registers,
// predicates, the PDOM SIMT reconvergence stack, and functional execution of
// every ISA instruction. The timing model (package sm) drives warps through
// this package; a standalone reference interpreter (FuncRun) executes whole
// launches functionally for cross-checking.
package warp

import (
	"fmt"
	"math/bits"

	"gscalar/internal/isa"
	"gscalar/internal/kernel"
)

// Mask is an active-lane mask; bit i set means lane i is active. A 64-bit
// mask supports the paper's Figure 10 warp-size-64 sweep.
type Mask = uint64

// NumPreds is the number of per-lane predicate registers (p0..p7).
const NumPreds = 8

// FullMask returns a mask with the low n bits set.
func FullMask(n int) Mask {
	if n >= 64 {
		return ^Mask(0)
	}
	return (Mask(1) << n) - 1
}

// PopCount returns the number of set bits in m.
func PopCount(m Mask) int { return bits.OnesCount64(m) }

// laneIndex is the shared, read-only per-lane index vector backing the
// %laneid special register for every warp (lanes are capped at 64).
var laneIndex = func() [64]uint32 {
	var v [64]uint32
	for i := range v {
		v[i] = uint32(i)
	}
	return v
}()

// StackEntry is one entry of the SIMT reconvergence stack.
type StackEntry struct {
	PC   int
	RPC  int // reconvergence PC: pop when PC reaches it; -1 = never
	Mask Mask
}

// Status describes what a warp is currently doing.
type Status uint8

// Warp statuses.
const (
	StatusReady   Status = iota // has a next instruction
	StatusBarrier               // waiting at bar.sync
	StatusDone                  // all threads exited
)

// Warp holds the architectural state of one warp. Lane state is kept in
// structure-of-arrays form: registers are one flat [reg*Width + lane] slice
// (sharing one allocation with the thread-coordinate vectors), and the
// predicate registers are stored as per-predicate lane masks, so predicate
// reads are single mask operations instead of per-lane loops.
type Warp struct {
	ID       int  // warp index within its CTA
	CTA      int  // linear CTA index within the grid
	GlobalID int  // unique warp id across the launch
	Width    int  // threads per warp (32 default; 64 for the Fig 10 sweep)
	LiveMask Mask // lanes populated at launch (tail warps may be partial)

	regs  []uint32       // [reg*Width + lane]
	preds [NumPreds]Mask // preds[p] bit i = predicate p of lane i
	nregs int
	wmask Mask // FullMask(Width)

	// Per-lane special register values, fixed at launch.
	tidX, tidY     []uint32
	ctaidX, ctaidY uint32
	exited         Mask

	stack   []StackEntry
	status  Status
	barrier bool // raised when the warp reaches a barrier; cleared by the SM
}

// New creates a warp of width lanes with numRegs registers and liveMask
// lanes populated. Its registers and thread-coordinate vectors are one
// zeroed allocation.
func New(globalID, ctaID, warpInCTA, width, numRegs int, liveMask Mask) *Warp {
	lanes := make([]uint32, (numRegs+2)*width)
	w := &Warp{
		ID:       warpInCTA,
		CTA:      ctaID,
		GlobalID: globalID,
		Width:    width,
		LiveMask: liveMask,
		regs:     lanes[:numRegs*width],
		nregs:    numRegs,
		wmask:    FullMask(width),
		tidX:     lanes[numRegs*width : (numRegs+1)*width],
		tidY:     lanes[(numRegs+1)*width:],
	}
	w.stack = append(w.stack, StackEntry{PC: 0, RPC: -1, Mask: liveMask})
	return w
}

// SetThreadCoords sets a lane's thread coordinates within its CTA.
func (w *Warp) SetThreadCoords(lane int, tidX, tidY uint32) {
	w.tidX[lane] = tidX
	w.tidY[lane] = tidY
}

// SetCTACoords sets the warp's CTA coordinates.
func (w *Warp) SetCTACoords(x, y uint32) { w.ctaidX, w.ctaidY = x, y }

// RegVec returns the full vector of register r (one value per lane). The
// returned slice aliases warp state; callers must not retain it across
// executions if they need a snapshot.
func (w *Warp) RegVec(r uint8) []uint32 {
	i := int(r) * w.Width
	return w.regs[i : i+w.Width]
}

// Reg returns register r of a single lane.
func (w *Warp) Reg(lane int, r uint8) uint32 { return w.regs[int(r)*w.Width+lane] }

// PredMask returns the set of lanes whose predicate p is set (or clear, if
// neg). With per-predicate mask storage this is a single mask select.
func (w *Warp) PredMask(p uint8, neg bool) Mask {
	m := w.preds[p]
	if neg {
		m = ^m
	}
	return m & w.wmask
}

// Status returns the warp's scheduling status.
func (w *Warp) Status() Status {
	if w.status == StatusBarrier {
		return StatusBarrier
	}
	if len(w.stack) == 0 {
		return StatusDone
	}
	return StatusReady
}

// ClearBarrier releases the warp from a barrier.
func (w *Warp) ClearBarrier() { w.status = StatusReady }

// StackDepth returns the current SIMT stack depth (for tests/metrics).
func (w *Warp) StackDepth() int { return len(w.stack) }

// StackMasks returns the active masks of the stack entries, bottom first
// (for tests/metrics).
func (w *Warp) StackMasks() []Mask {
	out := make([]Mask, len(w.stack))
	for i, e := range w.stack {
		out[i] = e.Mask
	}
	return out
}

// TopMask returns the active mask of the stack top (0 when done).
func (w *Warp) TopMask() Mask {
	if len(w.stack) == 0 {
		return 0
	}
	return w.stack[len(w.stack)-1].Mask
}

// NextPC pops reconverged and empty stack entries and returns the PC the
// warp will execute next. ok is false if the warp has finished.
func (w *Warp) NextPC() (pc int, ok bool) {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.Mask == 0 || (top.RPC >= 0 && top.PC == top.RPC) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return top.PC, true
	}
	return 0, false
}

// Peek returns the instruction the warp will execute next and the active
// mask it will execute with (guard applied), without executing it.
// Reconverged stack entries are popped as a side effect; Execute would pop
// them anyway.
func (w *Warp) Peek(ctx *Context) (pc int, in *isa.Instruction, active Mask, ok bool) {
	pc, ok = w.NextPC()
	if !ok || pc < 0 || pc >= ctx.Prog.Len() {
		return 0, nil, 0, false
	}
	in = ctx.Prog.At(pc)
	active = w.stack[len(w.stack)-1].Mask
	if in.Guard.On {
		active &= w.PredMask(in.Guard.Reg, in.Guard.Neg)
	}
	return pc, in, active, true
}

// maskString formats a mask over width lanes for diagnostics.
func maskString(m Mask, width int) string {
	b := make([]byte, width)
	for i := 0; i < width; i++ {
		if m&(1<<i) != 0 {
			b[width-1-i] = '1'
		} else {
			b[width-1-i] = '0'
		}
	}
	return string(b)
}

// String summarises the warp for diagnostics.
func (w *Warp) String() string {
	pc, ok := -1, false
	if len(w.stack) > 0 {
		pc, ok = w.stack[len(w.stack)-1].PC, true
	}
	_ = ok
	return fmt.Sprintf("warp{cta=%d id=%d pc=%d mask=%s depth=%d}",
		w.CTA, w.ID, pc, maskString(w.TopMask(), w.Width), len(w.stack))
}

// Context carries the launch-wide state functional execution needs.
type Context struct {
	Prog   *kernel.Program
	Launch *kernel.LaunchConfig
	Global *kernel.Memory
	Shared []uint32 // per-CTA shared memory (word-addressed model)
	// StoreBuf, when non-nil, receives global stores instead of Global
	// (timed simulation: an SM buffers its stores until the chip loop
	// commits them, serially, after the SM's step).
	StoreBuf *kernel.StoreBuffer
	// AddrScratch, when non-nil and at least warp-width long, backs
	// Outcome.Addrs instead of a fresh allocation. Only lanes set in
	// Outcome.Active are written; the caller owns the buffer's lifetime
	// (the SM hands each operand collector's scratch to the instruction it
	// holds, so the vector stays valid exactly until dispatch consumes it).
	AddrScratch []uint32
}

// Outcome reports what one warp-instruction execution did; the timing model
// and the G-Scalar classification logic consume it.
type Outcome struct {
	PC     int
	Inst   *isa.Instruction
	Active Mask // lanes that executed (guard applied)

	// Register writeback, if any.
	DstReg int      // -1 if none
	DstVec []uint32 // full register vector after the (possibly partial) write
	// Memory access, if any.
	IsMem   bool
	IsStore bool
	Addrs   []uint32 // per-lane byte addresses (valid where Active)

	Divergent bool // Active != warp live mask (paper's divergence notion)
	AtBarrier bool
	Exited    bool // warp finished after this instruction
}
