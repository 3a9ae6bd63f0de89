package gscalar_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"gscalar"
)

// cancelledRun executes workload abbr with an observer that cancels the
// context at the first lifecycle checkpoint at or past cancelAt simulated
// cycles, returning the partial result.
func cancelledRun(t *testing.T, workers int, abbr string, cancelAt uint64) gscalar.Result {
	t.Helper()
	cfg := gscalar.DefaultConfig()
	cfg.Workers = workers
	s, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.ObserverStride = 64
	s.Observer = func(p gscalar.Progress) {
		if p.Cycle >= cancelAt {
			cancel()
		}
	}
	res, err := s.RunWorkload(ctx, abbr, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
	}
	if !strings.Contains(err.Error(), abbr) || !strings.Contains(err.Error(), "gscalar") {
		t.Errorf("workers=%d: error %q lacks workload/architecture context", workers, err)
	}
	return res
}

// TestCancellationDeterminism cancels the same run at the same simulated
// cycle twice — under both the serial loop (Workers=0) and the phased loop
// (Workers=8) — and requires bit-identical partial results. The cut point is
// defined by an observer in simulated time, so it does not depend on host
// timing.
func TestCancellationDeterminism(t *testing.T) {
	const abbr = "HS"
	for _, workers := range []int{0, 8} {
		cfg := gscalar.DefaultConfig()
		cfg.Workers = workers
		full, err := runWorkloadVia(t, cfg, gscalar.GScalar, abbr, 1)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cycles < 256 {
			t.Fatalf("%s too short to cancel mid-run (%d cycles)", abbr, full.Cycles)
		}
		cancelAt := full.Cycles / 2

		a := cancelledRun(t, workers, abbr, cancelAt)
		b := cancelledRun(t, workers, abbr, cancelAt)
		if a.Cycles == 0 || a.Cycles >= full.Cycles {
			t.Errorf("workers=%d: partial run spans %d cycles, full run %d", workers, a.Cycles, full.Cycles)
		}
		if a.PowerW <= 0 || a.EnergyJ <= 0 {
			t.Errorf("workers=%d: partial power not finalized: %f W, %f J", workers, a.PowerW, a.EnergyJ)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d: cancelling at cycle %d twice gave different partial results:\n%+v\nvs\n%+v",
				workers, cancelAt, a, b)
		}
	}
}

// TestDeadlinePropagates checks that a context deadline aborts a run with
// DeadlineExceeded visible through the session's error wrapping.
func TestDeadlinePropagates(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	s, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(ctx, "HS", 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res.Cycles != 0 {
		t.Errorf("expired-deadline run simulated %d cycles", res.Cycles)
	}
}
