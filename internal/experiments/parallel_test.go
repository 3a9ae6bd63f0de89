package experiments

import (
	"context"
	"sync/atomic"
	"testing"

	"gscalar"
	"gscalar/internal/store"
)

// countingSuite builds a suite over a private point memo, so other tests
// cannot pre-warm it, and counts its fresh simulations through OnMetrics,
// which fires once per run that was neither answered from the memo nor
// joined.
func countingSuite(o Options) (*Suite, *atomic.Int32) {
	var sims atomic.Int32
	o.OnMetrics = func(Point, *gscalar.Metrics) { sims.Add(1) }
	s := NewSuiteContext(context.Background(), o)
	s.r.memo = store.NewMemory()
	return s, &sims
}

// TestPrewarmDedupsConcurrentIdenticalPoints: under PrewarmContext(..., par>1),
// workers that miss the same key concurrently must not each run the full
// simulation — each distinct key simulates exactly once, and every
// duplicate joins that run or finds its stored result.
func TestPrewarmDedupsConcurrentIdenticalPoints(t *testing.T) {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	s, sims := countingSuite(Options{Config: cfg, Workloads: []string{"HW"}})

	// Four copies of the same point dispatched to four workers: all four
	// miss the (empty) memo near-simultaneously.
	p := Point{Config: cfg, Arch: gscalar.GScalar, Workload: "HW", Scale: 1}
	points := []Point{p, p, p, p}
	if err := s.PrewarmContext(context.Background(), points, len(points)); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("simulations = %d, want exactly 1 for one distinct key", n)
	}
	if s.r.memo.Len() != 1 {
		t.Errorf("memo Len = %d, want 1", s.r.memo.Len())
	}
}

// TestPrewarmMatchesSerial runs the same suite serially and with a
// parallel prewarm and requires identical figure rows — the ordering
// guarantee behind the -parallel flag.
func TestPrewarmMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	opts := Options{Config: cfg, Workloads: []string{"HS", "MQ", "SAD"}}

	serial := NewSuiteContext(context.Background(), opts)
	serial.r.memo = store.NewMemory()
	want, err := serial.Fig11()
	if err != nil {
		t.Fatal(err)
	}

	par, sims := countingSuite(opts)
	fig11, err := Select("fig11")
	if err != nil {
		t.Fatal(err)
	}
	points := par.Points(fig11)
	if len(points) != 4*3 {
		t.Fatalf("fig11 points = %d, want 12", len(points))
	}
	if err := par.PrewarmContext(context.Background(), points, 4); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int32(len(points)) {
		t.Errorf("prewarm simulations = %d, want %d", n, len(points))
	}
	got, err := par.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != int32(len(points)) {
		t.Errorf("Fig11 after prewarm simulated again (%d -> %d simulations)", len(points), n)
	}
	if len(got) != len(want) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\nserial:  %+v\nparallel: %+v", i, want[i], got[i])
		}
	}
}

func TestPrewarmPropagatesError(t *testing.T) {
	s := NewSuiteContext(context.Background(), Options{Workloads: []string{"NOPE"}})
	s.r.memo = store.NewMemory()
	if err := s.PrewarmContext(context.Background(), []Point{{Arch: gscalar.GScalar, Workload: "NOPE", Scale: 1}}, 4); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestPointsDeduplicates(t *testing.T) {
	s := NewSuiteContext(context.Background(), Options{Workloads: []string{"HS", "MQ"}})
	// fig1 and fig9 both need only the G-Scalar runs; the union must not
	// repeat them.
	var exps []Experiment
	for _, name := range []string{"fig1", "fig9"} {
		e, err := Select(name)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e...)
	}
	if pts := s.Points(exps); len(pts) != 2 {
		t.Fatalf("points = %v, want one per workload", pts)
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Point]bool{}
	for _, p := range s.Points(all) {
		if seen[p] {
			t.Fatalf("duplicate point %+v", p)
		}
		seen[p] = true
	}
}
