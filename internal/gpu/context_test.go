package gpu

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"gscalar/internal/sm"
)

func TestRunContextPreCancelled(t *testing.T) {
	prog, lc, mem, _ := buildSaxpy(t, 256)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, DefaultConfig(), sm.GScalar(), prog, lc, mem)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cycles != 0 {
		t.Errorf("pre-cancelled run simulated %d cycles", res.Cycles)
	}
}

func TestRunContextExpiredDeadline(t *testing.T) {
	prog, lc, mem, _ := buildSaxpy(t, 256)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, DefaultConfig(), sm.Baseline(), prog, lc, mem)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestObserverDoesNotChangeResults runs with and without a progress observer
// (serial and phased loops) and requires bit-identical results, plus sane
// snapshots: strictly increasing cycles that land exactly on the stride
// grid, non-decreasing instruction counts, and a live-SM count within the
// chip size.
func TestObserverDoesNotChangeResults(t *testing.T) {
	for _, workers := range []int{0, 4} {
		prog, lc, mem, want := buildSaxpy(t, 4096)
		cfg := DefaultConfig()
		cfg.Workers = workers
		base, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		checkSaxpy(t, mem, lc, want)

		prog, lc, mem, _ = buildSaxpy(t, 4096)
		var snaps []Progress
		cfg.ObserverStride = 64
		cfg.Observer = func(p Progress) { snaps = append(snaps, p) }
		res, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Errorf("workers=%d: observed run differs from unobserved run", workers)
		}
		if len(snaps) == 0 {
			t.Fatalf("workers=%d: observer never called over %d cycles", workers, res.Cycles)
		}
		for i, p := range snaps {
			if p.Cycle%cfg.ObserverStride != 0 {
				t.Errorf("workers=%d: snapshot at cycle %d is off the stride-%d grid", workers, p.Cycle, cfg.ObserverStride)
			}
			if i > 0 && p.Cycle <= snaps[i-1].Cycle {
				t.Errorf("workers=%d: snapshot cycles not increasing: %d then %d", workers, snaps[i-1].Cycle, p.Cycle)
			}
			if i > 0 && p.WarpInsts < snaps[i-1].WarpInsts {
				t.Errorf("workers=%d: retired instructions decreased", workers)
			}
			if p.LiveSMs < 0 || p.LiveSMs > cfg.NumSMs {
				t.Errorf("workers=%d: LiveSMs = %d with %d SMs", workers, p.LiveSMs, cfg.NumSMs)
			}
		}
	}
}

// TestCancelMidRunDeterministic cancels the same run at the same simulated
// cycle twice — via an observer, so the cut point is defined in simulated
// time, not wall-clock time — and requires the two partial results to be
// bit-identical, for both the serial and the phased loop.
func TestCancelMidRunDeterministic(t *testing.T) {
	for _, workers := range []int{0, 4} {
		prog, lc, mem, _ := buildSaxpy(t, 4096)
		cfg := DefaultConfig()
		cfg.Workers = workers
		full, err := RunContext(context.Background(), cfg, sm.GScalar(), prog, lc, mem)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cycles < 128 {
			t.Fatalf("workload too short to cancel mid-run (%d cycles)", full.Cycles)
		}
		cancelAt := full.Cycles / 2

		partial := func() Result {
			prog, lc, mem, _ := buildSaxpy(t, 4096)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := cfg
			c.ObserverStride = 16
			c.Observer = func(p Progress) {
				if p.Cycle >= cancelAt {
					cancel()
				}
			}
			res, err := RunContext(ctx, c, sm.GScalar(), prog, lc, mem)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
			return res
		}
		a := partial()
		b := partial()
		if a.Cycles == 0 || a.Cycles >= full.Cycles {
			t.Errorf("workers=%d: partial run spans %d cycles, full run %d", workers, a.Cycles, full.Cycles)
		}
		if a.Power.AvgPowerW <= 0 {
			t.Errorf("workers=%d: partial run has no finalized power", workers)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d: cancelling at cycle %d twice gave different partial results:\n%+v\nvs\n%+v",
				workers, cancelAt, a, b)
		}
	}
}
