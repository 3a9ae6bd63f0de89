package warp

import (
	"fmt"

	"gscalar/internal/kernel"
)

// BuildCTA constructs the warps of one CTA, with thread coordinates and CTA
// coordinates filled in. ctaLinear is the CTA's linear index in the grid.
func BuildCTA(prog *kernel.Program, lc *kernel.LaunchConfig, ctaLinear, warpWidth, globalWarpBase int) []*Warp {
	threads := lc.Block.Count()
	nwarps := (threads + warpWidth - 1) / warpWidth
	ctaX := uint32(ctaLinear % lc.Grid.X)
	ctaY := uint32(ctaLinear / lc.Grid.X)

	warps := make([]*Warp, nwarps)
	for wi := 0; wi < nwarps; wi++ {
		lanes := warpWidth
		if rem := threads - wi*warpWidth; rem < lanes {
			lanes = rem
		}
		w := New(globalWarpBase+wi, ctaLinear, wi, warpWidth, prog.NumRegs, FullMask(lanes))
		w.SetCTACoords(ctaX, ctaY)
		for lane := 0; lane < lanes; lane++ {
			t := wi*warpWidth + lane
			w.SetThreadCoords(lane, uint32(t%lc.Block.X), uint32(t/lc.Block.X))
		}
		warps[wi] = w
	}
	return warps
}

// FuncRunResult summarises a functional (untimed) execution.
type FuncRunResult struct {
	WarpInsts      uint64 // dynamic warp-instructions executed
	ThreadInsts    uint64 // dynamic thread-instructions (sum of active lanes)
	DivergentInsts uint64
}

// FuncRun executes the whole launch functionally (see RunCTAs), counting
// what it executes. It is the golden model the timed simulator is checked
// against. maxInsts bounds runaway kernels (0 means a large default).
func FuncRun(prog *kernel.Program, lc *kernel.LaunchConfig, mem *kernel.Memory, warpWidth int, maxInsts uint64) (FuncRunResult, error) {
	var res FuncRunResult
	if maxInsts == 0 {
		maxInsts = 1 << 32
	}
	err := RunCTAs(prog, lc, mem, warpWidth, func(_ int, w *Warp, ctx *Context) error {
		out, err := w.Execute(ctx)
		if err != nil {
			return err
		}
		res.WarpInsts++
		res.ThreadInsts += uint64(PopCount(out.Active))
		if out.Divergent {
			res.DivergentInsts++
		}
		if res.WarpInsts > maxInsts {
			return fmt.Errorf("warp: instruction budget %d exceeded (runaway kernel?)", maxInsts)
		}
		return nil
	})
	return res, err
}

// RunCTAs executes the whole launch functionally, CTA by CTA, interleaving
// the warps of a CTA round-robin so barriers work: each warp runs until it
// blocks at a barrier or finishes, and a barrier releases once every live
// warp has arrived. step must execute exactly one instruction of w, a ready
// warp of CTA cta, through ctx; an error from step stops the launch and is
// returned, wrapped with the CTA index.
func RunCTAs(prog *kernel.Program, lc *kernel.LaunchConfig, mem *kernel.Memory, warpWidth int, step func(cta int, w *Warp, ctx *Context) error) error {
	for cta := 0; cta < lc.Grid.Count(); cta++ {
		warps := BuildCTA(prog, lc, cta, warpWidth, 0)
		ctx := &Context{
			Prog:   prog,
			Launch: lc,
			Global: mem,
			Shared: make([]uint32, (lc.SharedBytes+3)/4),
		}
		if err := runCTA(cta, ctx, warps, step); err != nil {
			return fmt.Errorf("cta %d: %w", cta, err)
		}
	}
	return nil
}

func runCTA(cta int, ctx *Context, warps []*Warp, step func(cta int, w *Warp, ctx *Context) error) error {
	for {
		progress := false
		allDone := true
		atBarrier := 0
		live := 0
		for _, w := range warps {
			switch w.Status() {
			case StatusDone:
				continue
			case StatusBarrier:
				allDone = false
				atBarrier++
				live++
				continue
			}
			allDone = false
			live++
			// Run the warp until it blocks (barrier) or finishes, to keep
			// the functional model fast; round-robin only matters at
			// barriers.
			for w.Status() == StatusReady {
				if err := step(cta, w, ctx); err != nil {
					return err
				}
				progress = true
			}
		}
		if allDone {
			return nil
		}
		// Release barrier when every live warp has arrived.
		if atBarrier == live && atBarrier > 0 {
			for _, w := range warps {
				if w.Status() == StatusBarrier {
					w.ClearBarrier()
				}
			}
			progress = true
		}
		if !progress {
			return fmt.Errorf("warp: deadlock — %d/%d warps at barrier", atBarrier, live)
		}
	}
}
