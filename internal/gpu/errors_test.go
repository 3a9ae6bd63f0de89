package gpu

import (
	"strings"
	"testing"
	"time"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
)

// TestRunRejectsInvalidLaunch checks that malformed and unplaceable launches
// fail before cycle 0 under every chip-loop schedule. Each run has a
// watchdog, so a schedule that spins on a launch instead of rejecting it
// fails the test rather than hanging it.
func TestRunRejectsInvalidLaunch(t *testing.T) {
	prog, err := asm.Assemble("mov r31, 1\nexit")
	if err != nil {
		t.Fatal(err)
	}
	valid := kernel.LaunchConfig{Grid: kernel.Dim{X: 4, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
	cases := []struct {
		name    string
		lc      kernel.LaunchConfig
		chip    func(*Config) // nil keeps DefaultConfig
		errWant string
	}{
		{name: "empty grid", lc: kernel.LaunchConfig{Grid: kernel.Dim{X: 0, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}},
		{name: "empty block", lc: kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 0, Y: 1}}},
		{name: "block too large", lc: kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 4096, Y: 1}}},
		{name: "no SMs", lc: valid, chip: func(c *Config) { c.NumSMs = 0 }, errWant: "at least 1 SM"},
		// 256 threads x 32 registers x 4 bytes = 32 KB per CTA: no SM with
		// an 8 KB register file can ever hold one.
		{name: "CTA exceeds register file", lc: valid, chip: func(c *Config) { c.RegFileKB = 8 },
			errWant: "32768 register bytes, the register file has 8192"},
	}
	schedules := []struct {
		name                 string
		workers, epochCycles int
	}{
		{"serial", 0, 0},
		{"phased", 2, 0},
		{"relaxed", 2, 64},
	}
	for _, tc := range cases {
		for _, sc := range schedules {
			cfg := DefaultConfig()
			cfg.MaxCycles = 20_000
			cfg.Workers = sc.workers
			cfg.EpochCycles = sc.epochCycles
			if tc.chip != nil {
				tc.chip(&cfg)
			}
			stepped := false
			cfg.ObserverStride = 1
			cfg.Observer = func(Progress) { stepped = true }
			lc := tc.lc
			done := make(chan error, 1)
			go func() {
				_, err := Run(cfg, sm.Baseline(), prog, &lc, kernel.NewMemory())
				done <- err
			}()
			select {
			case err := <-done:
				switch {
				case err == nil:
					t.Errorf("%s, %s: invalid launch accepted", tc.name, sc.name)
				case stepped:
					t.Errorf("%s, %s: rejected only after simulating cycles: %v", tc.name, sc.name, err)
				case !strings.Contains(err.Error(), tc.errWant):
					t.Errorf("%s, %s: error %q does not mention %q", tc.name, sc.name, err, tc.errWant)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, %s: Run still going after 10 s", tc.name, sc.name)
			}
		}
	}
}

func TestRunSurfacesKernelErrors(t *testing.T) {
	// Shared-memory overflow is a runtime kernel error and must surface
	// through Run with context, not panic.
	prog, err := asm.Assemble(`
	mov r1, 99999
	lds r2, [r1]
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{
		Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1},
		SharedBytes: 64,
	}
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	_, err = Run(cfg, sm.GScalar(), prog, lc, kernel.NewMemory())
	if err == nil {
		t.Fatal("shared overflow not reported")
	}
	if !strings.Contains(err.Error(), "shared") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestRunMaxCyclesGuard(t *testing.T) {
	prog, err := asm.Assemble("L:\nbra L\n")
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 32, Y: 1}}
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.MaxCycles = 10_000
	_, err = Run(cfg, sm.Baseline(), prog, lc, kernel.NewMemory())
	if err == nil || !strings.Contains(err.Error(), "cycles") {
		t.Fatalf("runaway kernel not caught: %v", err)
	}
}

func TestRunEmptyGridEdge(t *testing.T) {
	// Minimal 1-thread launch works.
	prog, err := asm.Assemble(`
	mov r1, 7
	iadd r2, $0, 0
	stg [r2], r1
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := kernel.NewMemory()
	out := mem.Alloc(4)
	lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: 1, Y: 1}, Block: kernel.Dim{X: 1, Y: 1}}
	lc.Params[0] = out
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	if _, err := Run(cfg, sm.GScalar(), prog, lc, mem); err != nil {
		t.Fatal(err)
	}
	if got := mem.ReadU32(out, 1)[0]; got != 7 {
		t.Fatalf("out = %d", got)
	}
}
