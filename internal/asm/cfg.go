package asm

import (
	"sort"

	"gscalar/internal/isa"
	"gscalar/internal/kernel"
)

// cfg is the control-flow graph of a program, with a virtual exit node.
type cfg struct {
	blockStart []int   // block -> first PC
	blockEnd   []int   // block -> one past last PC
	blockOf    []int   // PC -> block
	succs      [][]int // block (and exitNode, which has none) -> successor blocks
	exitNode   int     // virtual exit block id (== len(blockStart))
}

// buildCFG partitions the program into basic blocks and records edges.
func buildCFG(p *kernel.Program) *cfg {
	n := p.Len()
	leader := make([]bool, n)
	leader[0] = true
	for pc := range p.Code {
		in := &p.Code[pc]
		switch in.Op {
		case isa.OpBra:
			leader[in.Target] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		case isa.OpExit:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}

	c := &cfg{blockOf: make([]int, n)}
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			if len(c.blockStart) > 0 {
				c.blockEnd = append(c.blockEnd, pc)
			}
			c.blockStart = append(c.blockStart, pc)
		}
		c.blockOf[pc] = len(c.blockStart) - 1
	}
	c.blockEnd = append(c.blockEnd, n)
	nb := len(c.blockStart)
	c.exitNode = nb
	c.succs = make([][]int, nb+1)

	addSucc := func(b, s int) {
		for _, x := range c.succs[b] {
			if x == s {
				return
			}
		}
		c.succs[b] = append(c.succs[b], s)
	}

	for b := 0; b < nb; b++ {
		lastPC := c.blockEnd[b] - 1
		in := &p.Code[lastPC]
		switch in.Op {
		case isa.OpBra:
			addSucc(b, c.blockOf[in.Target])
			if in.Guard.On && lastPC+1 < n {
				addSucc(b, c.blockOf[lastPC+1])
			}
		case isa.OpExit:
			if in.Guard.On && lastPC+1 < n {
				// A guarded exit falls through for lanes that don't exit.
				addSucc(b, c.blockOf[lastPC+1])
			}
			addSucc(b, c.exitNode)
		default:
			if lastPC+1 < n {
				addSucc(b, c.blockOf[lastPC+1])
			} else {
				addSucc(b, c.exitNode)
			}
		}
		// A guarded exit in the middle of a block also reaches the virtual
		// exit; mid-block guarded exits don't end a block only if they were
		// not marked leaders. We made every exit end its block above, so
		// only the block-terminating case needs edges.
	}
	return c
}

// dominance computes, for each of n nodes, the set of nodes that dominate
// it (including itself) in a graph rooted at root whose edges into node b
// come from in[b]: the greatest fixpoint of dom(b) = {b} ∪ ⋂ dom(p) over
// p ∈ in[b], by iterative dataflow. A node no path from root reaches keeps
// the full set (vacuously dominated by everything). The fixpoint does not
// depend on the order nodes are visited.
func dominance(n, root int, in [][]int) []bitset {
	full := newBitset(n)
	for i := 0; i < n; i++ {
		full.set(i)
	}
	dom := make([]bitset, n)
	for b := range dom {
		dom[b] = full.clone()
	}
	dom[root] = newBitset(n)
	dom[root].set(root)
	for changed := true; changed; {
		changed = false
		for b := 0; b < n; b++ {
			if b == root || len(in[b]) == 0 {
				continue
			}
			meet := dom[in[b][0]].clone()
			for _, p := range in[b][1:] {
				meet.intersect(dom[p])
			}
			meet.set(b)
			if !meet.equal(dom[b]) {
				dom[b] = meet
				changed = true
			}
		}
	}
	return dom
}

// dominators computes, per block, the set of blocks that dominate it
// (including itself): dominance over predecessor edges from the entry
// block.
func (c *cfg) dominators() []bitset {
	nb := len(c.blockStart)
	preds := make([][]int, nb)
	for b := 0; b < nb; b++ {
		for _, s := range c.succs[b] {
			if s < nb {
				preds[s] = append(preds[s], b)
			}
		}
	}
	return dominance(nb, 0, preds)
}

// postDominators computes, for each block and the virtual exit node, the
// set of nodes that post-dominate it (including itself): dominance over
// successor edges from the virtual exit, which post-dominates everything.
func (c *cfg) postDominators() []bitset {
	return dominance(c.exitNode+1, c.exitNode, c.succs)
}

// assignRPCs computes each branch's reconvergence PC: the first instruction
// of the immediate post-dominator block of the branch's block. Branches
// whose immediate post-dominator is the virtual exit get RPC = -1 (the
// diverged paths never reconverge; all lanes eventually exit).
func assignRPCs(p *kernel.Program) error {
	c := buildCFG(p)
	pdom := c.postDominators()
	nb := len(c.blockStart)

	ipdom := make([]int, nb)
	for b := 0; b < nb; b++ {
		ipdom[b] = c.exitNode
		// Candidates: post-dominators of b other than b itself. The
		// immediate post-dominator is the candidate that is post-dominated
		// by every other candidate (the "closest" one).
		var cands []int
		for q := 0; q <= nb; q++ {
			if q != b && pdom[b].has(q) {
				cands = append(cands, q)
			}
		}
		sort.Ints(cands)
		for _, cand := range cands {
			closest := true
			for _, other := range cands {
				if other != cand && !pdom[cand].has(other) {
					closest = false
					break
				}
			}
			if closest {
				ipdom[b] = cand
				break
			}
		}
	}

	for pc := range p.Code {
		in := &p.Code[pc]
		if in.Op != isa.OpBra {
			continue
		}
		b := c.blockOf[pc]
		if ipdom[b] == c.exitNode {
			in.RPC = -1
		} else {
			in.RPC = c.blockStart[ipdom[b]]
		}
	}
	return nil
}

// bitset is a simple fixed-capacity bit set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) intersect(o bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
