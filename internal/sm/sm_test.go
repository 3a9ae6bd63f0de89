package sm

import (
	"strings"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/mem"
	"gscalar/internal/power"
)

func newTestSM(t testing.TB, cfg Config, src string, lc *kernel.LaunchConfig, gmem *kernel.Memory, arch Arch) (*SM, *power.Meter) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	var meter power.Meter
	msys := mem.NewSystem(6, 768<<10)
	s := New(0, cfg, arch, power.DefaultEnergies(), prog, lc, gmem, msys, &meter)
	return s, &meter
}

const tinySrc = `
	mov r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl r3, r2, 2
	iadd r4, $0, r3
	stg [r4], r2
	exit
`

func drive(t *testing.T, s *SM, ctas int, maxCycles uint64) uint64 {
	t.Helper()
	next := 0
	for cycle := uint64(0); cycle < maxCycles; cycle++ {
		for next < ctas && s.CanTakeCTA() {
			s.LaunchCTA(next)
			next++
		}
		s.Cycle(cycle)
		s.Commit()
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
		if !s.Busy() && next >= ctas {
			return cycle
		}
	}
	t.Fatalf("SM did not drain: %s", s.DebugState())
	return 0
}

func TestSMDirectDrive(t *testing.T) {
	gmem := kernel.NewMemory()
	out := gmem.Alloc(4 * 64 * 4)
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 64, Y: 1}}
	lc.Params[0] = out
	s, meter := newTestSM(t, DefaultConfig(), tinySrc, lc, gmem, GScalar())

	cycles := drive(t, s, 4, 100_000)
	if cycles == 0 {
		t.Fatal("zero cycles")
	}
	if got := s.Stats().WarpInsts; got != 4*2*6 {
		t.Errorf("warp insts = %d, want %d", got, 4*2*6)
	}
	for i, v := range gmem.ReadU32(out, 4*64) {
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if meter.TotalDynamic() <= 0 {
		t.Error("no dynamic energy recorded")
	}
}

func TestSMCanTakeCTALimits(t *testing.T) {
	gmem := kernel.NewMemory()
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 100, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
	lc.Params[0] = gmem.Alloc(1024)
	s, _ := newTestSM(t, DefaultConfig(), tinySrc, lc, gmem, Baseline())

	launched := 0
	for s.CanTakeCTA() {
		s.LaunchCTA(launched)
		launched++
		if launched > 100 {
			t.Fatal("CanTakeCTA never saturates")
		}
	}
	// 256-thread CTAs: 8 warps each; 48 warp slots => 6 resident CTAs
	// (CTA slots would allow 8; register capacity allows more).
	if launched != 6 {
		t.Errorf("resident CTAs = %d, want 6 (warp-slot bound)", launched)
	}
}

func TestSMDebugState(t *testing.T) {
	gmem := kernel.NewMemory()
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
	lc.Params[0] = gmem.Alloc(256)
	s, _ := newTestSM(t, DefaultConfig(), tinySrc, lc, gmem, Baseline())
	s.LaunchCTA(0)
	st := s.DebugState()
	for _, want := range []string{"sm0", "live=1", "ctas=1"} {
		if !strings.Contains(st, want) {
			t.Errorf("DebugState missing %q: %s", want, st)
		}
	}
}

func TestSMStatsAccumulateAcrossCTAs(t *testing.T) {
	gmem := kernel.NewMemory()
	out := gmem.Alloc(64 * 32 * 4)
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 64, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
	lc.Params[0] = out
	s, _ := newTestSM(t, DefaultConfig(), tinySrc, lc, gmem, GScalar())
	drive(t, s, 64, 500_000)
	if got := s.Stats().WarpInsts; got != 64*6 {
		t.Errorf("warp insts = %d, want %d", got, 64*6)
	}
}
