package profile

import (
	"strings"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
)

func TestProfileCountsAndListing(t *testing.T) {
	prog, err := asm.Assemble(`
.kernel prof
	mov r1, %tid.x
	mov r2, 0
LOOP:
	iadd r2, r2, 1
	isetp.lt p0, r2, 4
	@p0 bra LOOP
	and r3, r1, 1
	isetp.eq p1, r3, 0
	@p1 bra EVEN
	imul r4, r1, 3
	bra J
EVEN:
	iadd r4, r1, 7
J:
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 2, Y: 1}, Block: kernel.Dim{X: 64, Y: 1}}
	p, err := Run(prog, lc, kernel.NewMemory(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 warps total; the loop body executes 4x per warp.
	if got := p.PCs[2].Execs; got != 16 {
		t.Errorf("loop body execs = %d, want 16", got)
	}
	// The loop counter increments are value-uniform.
	if p.PCs[2].ValueUniform != p.PCs[2].Execs {
		t.Errorf("loop counter not value-uniform: %+v", p.PCs[2])
	}
	// The even/odd sides run divergently with 32 of 64... lanes split per
	// warp of 32: 16 active each.
	if p.PCs[8].Divergent != p.PCs[8].Execs {
		t.Errorf("branch side not divergent: %+v", p.PCs[8])
	}
	if lanes := float64(p.PCs[8].Lanes) / float64(p.PCs[8].Execs); lanes != 16 {
		t.Errorf("branch side lanes = %v, want 16", lanes)
	}

	lst := p.Listing()
	if !strings.Contains(lst, "prof") || !strings.Contains(lst, "imul") {
		t.Errorf("listing incomplete:\n%s", lst)
	}

	sum := p.Summarise()
	if sum.FracDivergent <= 0 || sum.FracDivergent >= 1 {
		t.Errorf("divergent frac = %v", sum.FracDivergent)
	}
	if sum.FracValueUniform <= 0 {
		t.Errorf("uniform frac = %v", sum.FracValueUniform)
	}
	// The static analysis can only claim a subset of the dynamic truth.
	if sum.FracStaticUniform > sum.FracValueUniform+1e-9 {
		t.Errorf("static %v exceeds dynamic %v", sum.FracStaticUniform, sum.FracValueUniform)
	}
}

func TestProfileRunawayGuard(t *testing.T) {
	prog, err := asm.Assemble("LOOP:\nbra LOOP\n")
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
	if _, err := Run(prog, lc, kernel.NewMemory(), 100); err == nil {
		t.Fatal("expected budget error")
	}
}
