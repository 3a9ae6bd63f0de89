package asm

import (
	"fmt"
	"math/rand"
	"testing"

	"gscalar/internal/isa"
	"gscalar/internal/kernel"
)

// rpcOf returns the reconvergence PC assigned to the first branch found at
// or after pc.
func rpcOf(t *testing.T, p *kernel.Program, pc int) int {
	t.Helper()
	for ; pc < p.Len(); pc++ {
		if p.At(pc).Op == isa.OpBra {
			return p.At(pc).RPC
		}
	}
	t.Fatalf("no branch at/after pc %d", pc)
	return -1
}

func TestRPCIfElse(t *testing.T) {
	p, err := Assemble(`
	isetp.lt p0, r1, r2
	@p0 bra THEN
	iadd r3, r3, 1
	bra JOIN
THEN:
	iadd r3, r3, 2
JOIN:
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	// The conditional branch reconverges at JOIN (pc 5).
	if got := p.At(1).RPC; got != 5 {
		t.Errorf("if/else RPC = %d, want 5", got)
	}
}

func TestRPCLoop(t *testing.T) {
	p, err := Assemble(`
	mov r1, 0
LOOP:
	iadd r1, r1, 1
	isetp.lt p0, r1, 10
	@p0 bra LOOP
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	// The backward branch reconverges at the loop exit (pc 4).
	if got := p.At(3).RPC; got != 4 {
		t.Errorf("loop RPC = %d, want 4", got)
	}
}

func TestRPCNested(t *testing.T) {
	p, err := Assemble(`
	isetp.lt p0, r1, r2
	@p0 bra OUTER_ELSE
	isetp.lt p1, r3, r4
	@p1 bra INNER_ELSE
	iadd r5, r5, 1
	bra INNER_JOIN
INNER_ELSE:
	iadd r5, r5, 2
INNER_JOIN:
	bra OUTER_JOIN
OUTER_ELSE:
	iadd r5, r5, 3
OUTER_JOIN:
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	// Inner branch (pc 3) reconverges at INNER_JOIN (pc 7); outer branch
	// (pc 1) at OUTER_JOIN (pc 9).
	if got := p.At(3).RPC; got != 7 {
		t.Errorf("inner RPC = %d, want 7", got)
	}
	if got := p.At(1).RPC; got != 9 {
		t.Errorf("outer RPC = %d, want 9", got)
	}
}

func TestRPCBothSidesExit(t *testing.T) {
	p, err := Assemble(`
	isetp.lt p0, r1, r2
	@p0 bra B
	exit
B:
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	// The paths never reconverge: RPC must be -1.
	if got := p.At(1).RPC; got != -1 {
		t.Errorf("RPC = %d, want -1", got)
	}
}

func TestRPCGuardedExit(t *testing.T) {
	p, err := Assemble(`
	isetp.lt p0, r1, r2
	@p0 exit
	iadd r3, r3, 1
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	// A guarded exit is not a branch; no RPC involved, but the program must
	// still assemble and build a CFG with the fallthrough edge.
	c := buildCFG(p)
	if len(c.succs[c.blockOf[1]]) != 2 {
		t.Errorf("guarded-exit block should have 2 successors, got %v", c.succs[c.blockOf[1]])
	}
}

// bruteForcePostDom computes postdominators by the definition: q
// postdominates b iff every path from b to the virtual exit passes through
// q. It enumerates reachability with q removed.
func bruteForcePostDom(c *cfg, b, q int) bool {
	if b == q {
		return true
	}
	// DFS from b avoiding q; if exit is reachable, q is not a postdominator.
	seen := make([]bool, len(c.blockStart)+1)
	var stack []int
	stack = append(stack, b)
	seen[b] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == c.exitNode {
			return false
		}
		for _, s := range c.succs[n] {
			if s != q && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// genRandomProgram builds a random structured program with branches, loops
// and exits, always ending in an unguarded exit.
func genRandomProgram(rng *rand.Rand) string {
	n := 4 + rng.Intn(12)
	src := ""
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			src += fmt.Sprintf("L%d: iadd r1, r1, %d\n", i, i)
		case 1:
			src += fmt.Sprintf("L%d: isetp.lt p0, r1, r2\n@p0 bra L%d\n", i, rng.Intn(n))
		case 2:
			src += fmt.Sprintf("L%d: @p0 exit\n", i)
		default:
			src += fmt.Sprintf("L%d: mov r2, %d\n", i, i*3)
		}
	}
	src += fmt.Sprintf("L%d: exit\n", n)
	return src
}

// bruteForceDom computes dominators by the definition: q dominates b iff
// every path from the entry block to b passes through q, vacuously so when
// no path reaches b. It enumerates reachability with q removed.
func bruteForceDom(c *cfg, b, q int) bool {
	if b == q || q == 0 {
		return true
	}
	seen := make([]bool, len(c.blockStart)+1)
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == b {
			return false
		}
		for _, s := range c.succs[n] {
			if s != q && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return true
}

// TestRPCMatchesBruteForce cross-checks the iterative dominator and
// postdominator analyses against their path-based definitions on random
// programs.
func TestRPCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		src := genRandomProgram(rng)
		p, err := Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		c := buildCFG(p)
		nb := len(c.blockStart)
		pdom, dom := c.postDominators(), c.dominators()
		for b := 0; b < nb; b++ {
			for q := 0; q <= nb; q++ {
				got := pdom[b].has(q)
				want := bruteForcePostDom(c, b, q)
				if got != want {
					t.Fatalf("trial %d: pdom(%d,%d) = %v, want %v\n%s",
						trial, b, q, got, want, src)
				}
				if q == nb {
					continue // the virtual exit is no block's dominator
				}
				if got, want := dom[b].has(q), bruteForceDom(c, b, q); got != want {
					t.Fatalf("trial %d: dom(%d,%d) = %v, want %v\n%s",
						trial, b, q, got, want, src)
				}
			}
		}
	}
}
