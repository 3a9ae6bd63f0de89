package experiments

import (
	"context"
	"strings"
	"testing"

	"gscalar"
)

// smallSuite runs on a 2-SM chip over a 3-benchmark subset so the whole
// experiment path stays test-sized.
func smallSuite() *Suite {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	return NewSuiteContext(context.Background(), Options{Config: cfg, Workloads: []string{"HS", "MQ", "SAD"}})
}

func TestSuiteFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := smallSuite()
	rows, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byAbbr := map[string]Fig1Row{}
	for _, r := range rows {
		byAbbr[r.Abbr] = r
	}
	// HS and SAD have substantial divergence with a divergent-scalar
	// component; MQ is essentially non-divergent.
	if byAbbr["HS"].Divergent < 0.2 || byAbbr["HS"].DivergentScalar == 0 {
		t.Errorf("HS = %+v", byAbbr["HS"])
	}
	if byAbbr["MQ"].Divergent > 0.05 {
		t.Errorf("MQ divergent = %v", byAbbr["MQ"].Divergent)
	}
	out := FormatFig1(rows)
	if !strings.Contains(out, "MEAN") || !strings.Contains(out, "HS") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

func TestSuiteFig9CachesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	s, sims := countingSuite(Options{Config: cfg, Workloads: []string{"HS", "MQ", "SAD"}})
	if _, err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	// The memoizing runner must serve Fig1 from the same G-Scalar runs: the
	// second figure is answered from the memo and simulates nothing new.
	before := sims.Load()
	if before != 3 || s.r.memo.Len() != 3 {
		t.Fatalf("Fig9 ran %d simulations into %d memo entries, want 3 and 3", before, s.r.memo.Len())
	}
	if _, err := s.Fig1(); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != before || s.r.memo.Len() != 3 {
		t.Errorf("Fig1 re-simulated despite the memo (%d -> %d simulations, %d entries)", before, n, s.r.memo.Len())
	}
}

// TestConfigKeyInvalidation checks that every semantically meaningful
// change to a point — a config field, the scale, the architecture — yields
// a distinct PointKey, so a changed point can never be served a stale
// result, while the phased worker count (which never changes results) is
// collapsed so those points share one key.
func TestConfigKeyInvalidation(t *testing.T) {
	key := func(cfg gscalar.Config, scale int) string { return PointKey(cfg, scale, gscalar.GScalar, "HW") }
	base := key(gscalar.DefaultConfig(), 1)

	mutations := map[string]func(*gscalar.Config){
		"NumSMs":      func(c *gscalar.Config) { c.NumSMs = 7 },
		"L1Bytes":     func(c *gscalar.Config) { c.L1Bytes = 32 << 10 },
		"L2Bytes":     func(c *gscalar.Config) { c.L2Bytes = 256 << 10 },
		"MemChannels": func(c *gscalar.Config) { c.MemChannels = 2 },
		"WarpSize":    func(c *gscalar.Config) { c.WarpSize = 64 },
		"MaxCycles":   func(c *gscalar.Config) { c.MaxCycles = 5 },
	}
	for name, mutate := range mutations {
		cfg := gscalar.DefaultConfig()
		mutate(&cfg)
		if k := key(cfg, 1); k == base {
			t.Errorf("changing %s did not change the point key", name)
		}
	}
	if k := key(gscalar.DefaultConfig(), 2); k == base {
		t.Error("changing scale did not change the point key")
	}
	if k := PointKey(gscalar.DefaultConfig(), 1, gscalar.Baseline, "HW"); k == base {
		t.Error("changing the architecture did not change the point key")
	}

	// Workers normalisation: 0 (serial schedule) is its own key; every
	// non-zero count maps to one shared key (bit-identical results).
	phased := func(n int) string {
		cfg := gscalar.DefaultConfig()
		cfg.Workers = n
		return key(cfg, 1)
	}
	if phased(1) != phased(8) || phased(1) != phased(-1) {
		t.Error("phased worker counts should share one point key")
	}
	if phased(1) == base {
		t.Error("phased and serial schedules must not share a point key")
	}
	if !strings.Contains(base, "|scale=1|") {
		t.Errorf("key %q lacks the scale component", base)
	}
	if !strings.HasPrefix(base, gscalar.DefaultConfig().Hash()) {
		t.Errorf("key %q is not prefixed by the config content hash", base)
	}

	// The key hashes the normalized config: a sparse config denotes "Table 1
	// with these changes" and must share the entry of its explicit form.
	sparse := gscalar.Config{NumSMs: 7}
	explicit := gscalar.DefaultConfig()
	explicit.NumSMs = 7
	if key(sparse, 1) != key(explicit, 1) {
		t.Error("sparse config and its normalized equivalent should share a point key")
	}
}

// TestSparseOptionsConfig checks that a suite keeps the fields a sparse
// Options.Config sets and fills the rest from Table 1: the point keys it
// simulates and the Table 1 it prints both follow the normalized config.
func TestSparseOptionsConfig(t *testing.T) {
	// table1 renders the suite's Table 1 and returns the value column of
	// each row, by parameter.
	table1 := func(s *Suite) map[string]string {
		exps, err := Select("table1")
		if err != nil {
			t.Fatal(err)
		}
		text, _, err := exps[0].Render(s)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]string{}
		for _, line := range strings.Split(text, "\n") {
			if cols := strings.SplitN(line, "  ", 2); len(cols) == 2 {
				if f := strings.Fields(cols[1]); len(f) > 0 {
					rows[cols[0]] = f[0]
				}
			}
		}
		return rows
	}
	if got, want := NewSuiteContext(context.Background(), Options{}).r.o.Config, gscalar.DefaultConfig(); got != want {
		t.Errorf("zero config became %+v, want Table 1 %+v", got, want)
	}

	s := NewSuiteContext(context.Background(), Options{Config: gscalar.Config{MemChannels: 2}})
	want := gscalar.DefaultConfig()
	want.MemChannels = 2
	if s.r.o.Config != want {
		t.Errorf("{MemChannels: 2} became %+v, want %+v", s.r.o.Config, want)
	}
	if PointKey(s.r.o.Config, 1, gscalar.GScalar, "HW") == PointKey(gscalar.DefaultConfig(), 1, gscalar.GScalar, "HW") {
		t.Error("{MemChannels: 2} keys its points as Table 1's")
	}
	if got := table1(s)["memory channels"]; got != "2" {
		t.Errorf("Table 1 of {MemChannels: 2} prints %q memory channels, want 2", got)
	}

	rows := table1(NewSuiteContext(context.Background(), Options{Config: gscalar.Config{NumSMs: 2}}))
	for param, want := range map[string]string{"# of SMs": "2", "SM frequency": "1.4", "memory channels": "6"} {
		if rows[param] != want {
			t.Errorf("Table 1 of {NumSMs: 2}: %s = %q, want %q (rows %v)", param, rows[param], want, rows)
		}
	}
}

func TestSuiteFig12Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := smallSuite()
	rows, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ours <= 0 || r.Ours >= 1.2 {
			t.Errorf("%s: ours = %v, implausible", r.Abbr, r.Ours)
		}
		if r.Ours > r.ScalarOnly+0.15 {
			t.Errorf("%s: byte-wise (%v) should not lose badly to scalar-only (%v)",
				r.Abbr, r.Ours, r.ScalarOnly)
		}
		if r.OursRatio < 1 || r.WCRatio < 1 {
			t.Errorf("%s: compression ratios %v/%v below 1", r.Abbr, r.OursRatio, r.WCRatio)
		}
	}
}

func TestSuiteUnknownWorkload(t *testing.T) {
	s := NewSuiteContext(context.Background(), Options{Workloads: []string{"NOPE"}})
	if _, err := s.Fig1(); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestWidthSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := smallSuite()
	rows, err := s.WidthSweep([]int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Narrower data must compress better and burn less RF power.
	if rows[0].CompressionRatio <= rows[1].CompressionRatio {
		t.Errorf("8-bit ratio %v not better than 32-bit %v",
			rows[0].CompressionRatio, rows[1].CompressionRatio)
	}
	if rows[0].RFDynamicVsBase >= rows[1].RFDynamicVsBase {
		t.Errorf("8-bit RF power %v not lower than 32-bit %v",
			rows[0].RFDynamicVsBase, rows[1].RFDynamicVsBase)
	}
}

func TestFormatters(t *testing.T) {
	// Formatting must not depend on simulation: feed synthetic rows.
	f1 := FormatFig1([]Fig1Row{{"XX", 0.5, 0.25}})
	if !strings.Contains(f1, "50.0%") || !strings.Contains(f1, "25.0%") {
		t.Errorf("Fig1 formatting:\n%s", f1)
	}
	f11 := FormatFig11([]Fig11Row{{Abbr: "XX", ALUScalar: 1.1, GScalarNoDiv: 1.2, GScalar: 1.3, GScalarIPC: 0.98, BaselinePower: 100}})
	if !strings.Contains(f11, "1.300") {
		t.Errorf("Fig11 formatting:\n%s", f11)
	}
	f12 := FormatFig12([]Fig12Row{{Abbr: "XX", ScalarOnly: 0.6, WC: 0.5, Ours: 0.4, OursRatio: 2.2, WCRatio: 2.1}})
	if !strings.Contains(f12, "0.400") {
		t.Errorf("Fig12 formatting:\n%s", f12)
	}
	t1 := FormatTable1(gscalar.DefaultConfig())
	for _, want := range []string{"15", "1.4 GHz", "128 KB", "768 KB"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}
	t2 := FormatTable2()
	for _, abbr := range gscalar.Workloads() {
		if !strings.Contains(t2, abbr) {
			t.Errorf("Table2 missing %s", abbr)
		}
	}
	t3 := FormatTable3()
	for _, want := range []string{"7332", "11624", "0.35", "0.67", "5.2%"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table3 missing %q", want)
		}
	}
}

func TestStaticUniformOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	// The compile-time analysis must run on the suite's workloads without
	// panicking, and can never exceed the dynamic hardware detection.
	s := smallSuite()
	rows, err := s.CompilerScalar()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Static > r.Dynamic+1e-9 {
			t.Errorf("%s: static %.3f exceeds dynamic %.3f", r.Abbr, r.Static, r.Dynamic)
		}
	}
}
