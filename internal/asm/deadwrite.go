package asm

import (
	"gscalar/internal/isa"
	"gscalar/internal/kernel"
)

// DeadOnWrite returns, per instruction, whether the instruction writes a
// vector register whose stale (inactive-lane) bytes can never be observed
// afterwards — the condition under which the §3.3 decompressing move can be
// elided by a compiler even though the write is divergent.
//
// A read q of register r observes the stale bytes of a divergent write W
// only if q may execute with lanes active that were inactive at W. Within
// the SIMT stack model masks only shrink along paths dominated by W until
// control reaches a reconvergence point of a branch *older than* W (such a
// reconvergence restores a mask at least as wide as W's). So q is *safe*
// (mask ⊆ W's mask) when:
//
//   - W's basic block dominates q's block, and
//   - no reconvergence point of a branch at or before W lies in (W, q].
//
// Any other read is conservatively treated as observing. The analysis then
// reports W dead iff no observing read of r is reachable from W without an
// intervening convergent (full) redefinition. This correctly refuses to
// elide the paper's Figure 7(b) pattern, where the other side of the same
// branch reads the register under a complementary mask.
func DeadOnWrite(p *kernel.Program) []bool {
	n := p.Len()
	c := buildCFG(p)
	dom := c.dominators()
	an := Analyze(p)

	// For each write W: limit = the first reconvergence point after W
	// belonging to a branch at or before W (an older reconvergence restores
	// a mask at least as wide as W's).
	limitAfter := func(pc int) int {
		limit := n
		for b := 0; b <= pc; b++ {
			in := p.At(b)
			if in.Op == isa.OpBra && in.RPC > pc && in.RPC < limit {
				limit = in.RPC
			}
		}
		return limit
	}

	dead := make([]bool, n)
	for pc := 0; pc < n; pc++ {
		in := p.At(pc)
		r, ok := in.WritesReg()
		if !ok {
			continue
		}
		limit := limitAfter(pc)
		if in.Guard.On {
			// A guarded write's active mask is narrowed by its predicate:
			// even same-region reads may see lanes the write skipped. No
			// safe zone.
			limit = pc
		}
		dead[pc] = !siblingReads(p, c, dom, pc, r, limit) &&
			!staleObservable(p, c, dom, an, pc, r, limit)
	}
	return dead
}

// siblingReads reports whether register r is read in a sibling divergent
// path of the write at wpc — i.e. inside the region of an enclosing branch
// but outside the write's safe zone. The SIMT stack executes sibling paths
// after the write even though no CFG path connects them (Figure 7(b)), so
// CFG reachability alone would miss these reads.
func siblingReads(p *kernel.Program, c *cfg, dom []bitset, wpc int, r uint8, limit int) bool {
	n := p.Len()
	wblock := c.blockOf[wpc]
	for b := 0; b < wpc; b++ {
		br := p.At(b)
		if br.Op != isa.OpBra || !br.Guard.On {
			continue
		}
		end := br.RPC
		if end < 0 || end < b {
			end = n
		}
		if wpc <= b || wpc >= end {
			continue // not an enclosing region
		}
		start := b + 1
		if br.Target < start {
			start = br.Target
		}
		for q := start; q < end; q++ {
			if q < limit && dom[c.blockOf[q]].has(wblock) {
				continue // safe zone: mask subset of the write's
			}
			if readsReg(p.At(q), r) {
				return true
			}
		}
	}
	return false
}

func readsReg(in *isa.Instruction, r uint8) bool {
	for i := uint8(0); i < in.NSrc; i++ {
		if in.Srcs[i].Kind == isa.OpdReg && in.Srcs[i].Reg == r {
			return true
		}
	}
	return false
}

// flowSuccs returns the (up to two) successor PCs of pc for dataflow.
func flowSuccs(p *kernel.Program, pc int) (x, y int) {
	x, y = -1, -1
	n := p.Len()
	in := p.At(pc)
	switch in.Op {
	case isa.OpBra:
		x = in.Target
		if in.Guard.On && pc+1 < n {
			y = pc + 1
		}
	case isa.OpExit:
		if in.Guard.On && pc+1 < n {
			x = pc + 1
		}
	default:
		if pc+1 < n {
			x = pc + 1
		}
	}
	return x, y
}

// staleObservable walks the CFG forward from the write at wpc and reports
// whether an observing read of r is reachable. Reads in the safe zone
// (dominated by the write and before its limit — including re-executions
// of the dominated region in later loop iterations, which the write always
// precedes under its then-current mask) are skipped. A convergent
// unguarded redefinition fully kills the stale bytes and stops the path.
func staleObservable(p *kernel.Program, c *cfg, dom []bitset, an *StaticAnalysis, wpc int, r uint8, limit int) bool {
	wblock := c.blockOf[wpc]
	n := p.Len()
	visited := make([]bool, n)
	var stack []int
	push := func(q int) {
		if q >= 0 && q < n && !visited[q] {
			visited[q] = true
			stack = append(stack, q)
		}
	}
	x, y := flowSuccs(p, wpc)
	push(x)
	push(y)

	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in := p.At(q)

		inSafeZone := q < limit && dom[c.blockOf[q]].has(wblock)
		if !inSafeZone {
			if readsReg(in, r) {
				return true
			}
			if wr, ok := in.WritesReg(); ok && wr == r && !in.Guard.On && !an.Divergent[q] {
				// Convergent full redefinition: the stale bytes are gone on
				// this path.
				continue
			}
		}
		qx, qy := flowSuccs(p, q)
		push(qx)
		push(qy)
	}
	return false
}
