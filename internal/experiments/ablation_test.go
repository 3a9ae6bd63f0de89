package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"gscalar"
	"gscalar/internal/sm"
	"gscalar/internal/store"
	"gscalar/internal/workloads"
)

// captureTrace runs abbr on cfg with trace capture on and returns the
// replay spec of the written trace.
func captureTrace(t *testing.T, cfg gscalar.Config, abbr, path string) string {
	t.Helper()
	sess, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	sess.Capture.Path = path
	if _, err := sess.RunWorkload(context.Background(), abbr, 1); err != nil {
		t.Fatal(err)
	}
	return workloads.TracePrefix + path
}

// TestAblationsAcceptEveryWorkloadSpec runs every ablation on a generated
// kernel and on a captured trace, the two spec kinds -bench accepts besides
// builtin names. Each must yield one row per spec, as the figures do.
func TestAblationsAcceptEveryWorkloadSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	specs := []string{
		"gen:div=0.3,occ=0.05",
		captureTrace(t, cfg, "HW", filepath.Join(t.TempDir(), "hw.gstr")),
	}
	s := NewSuiteContext(context.Background(), Options{Config: cfg, Workloads: specs})
	ablations := []struct {
		name string
		run  func() (int, error)
	}{
		{"half", func() (int, error) { r, err := s.HalfAblation(); return len(r), err }},
		{"moves", func() (int, error) { r, err := s.MoveOverhead(); return len(r), err }},
		{"scalarbank", func() (int, error) { r, err := s.ScalarBankAblation(); return len(r), err }},
		{"sched", func() (int, error) { r, err := s.SchedAblation(); return len(r), err }},
		{"compiler", func() (int, error) { r, err := s.CompilerScalar(); return len(r), err }},
	}
	for _, a := range ablations {
		t.Run(a.name, func(t *testing.T) {
			n, err := a.run()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(specs) {
				t.Errorf("%d rows for %d workload specs", n, len(specs))
			}
		})
	}
}

// TestCustomArchTraceRecaptured re-captures a different workload at the
// path of a trace the suite has already run under a custom architecture.
// The memo is keyed on the trace's content, so the second run simulates
// the new file instead of returning the old result.
func TestCustomArchTraceRecaptured(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	path := filepath.Join(t.TempDir(), "w.gstr")
	spec := captureTrace(t, cfg, "HW", path)
	s := NewSuiteContext(context.Background(), Options{Config: cfg, Workloads: []string{spec}})
	before, err := s.runCustomArch(spec, sm.PriorScalarRF())
	if err != nil {
		t.Fatal(err)
	}
	captureTrace(t, cfg, "SR2", path)
	after, err := s.runCustomArch(spec, sm.PriorScalarRF())
	if err != nil {
		t.Fatal(err)
	}
	if after.Cycles == before.Cycles {
		t.Errorf("re-captured trace replayed the old result (%d cycles)", after.Cycles)
	}
}

// TestCustomArchRunsTheSuiteChip runs the public G-Scalar architecture both
// as a memo point and through runCustomArch, under configurations that
// differ from Table 1 in fields a Session lowers. The two must simulate the
// same chip: an ablation row compares its custom point with memo points of
// the suite's configuration.
func TestCustomArchRunsTheSuiteChip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	configs := map[string]func(*gscalar.Config){
		"MemChannels=2": func(c *gscalar.Config) { c.MemChannels = 2 },
		"L1Bytes=64KiB": func(c *gscalar.Config) { c.L1Bytes = 64 << 10 },
		"relaxed@2x256": func(c *gscalar.Config) { c.Workers = 2; c.EpochCycles = 256 },
	}
	for name, mutate := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := gscalar.DefaultConfig()
			cfg.NumSMs = 2
			mutate(&cfg)
			s := NewSuiteContext(context.Background(), Options{Config: cfg, Workloads: []string{"MV"}})
			s.r.memo = store.NewMemory()
			pub, err := s.r.run(gscalar.GScalar, "MV")
			if err != nil {
				t.Fatal(err)
			}
			custom, err := s.runCustomArch("MV", sm.GScalar())
			if err != nil {
				t.Fatal(err)
			}
			if custom.Cycles != pub.Cycles || custom.EnergyJ != pub.EnergyJ {
				t.Errorf("runCustomArch: %d cycles, %g J; memo point: %d cycles, %g J",
					custom.Cycles, custom.EnergyJ, pub.Cycles, pub.EnergyJ)
			}
		})
	}
}
