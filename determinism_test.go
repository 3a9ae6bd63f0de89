package gscalar_test

import (
	"context"
	"reflect"
	"testing"

	"gscalar"
)

// runWorkloadVia simulates one workload through a fresh Session — the
// supported entry path now that the context-less free functions are
// deprecated shims. Shared by the determinism, cancellation and benchmark
// tests of this package.
func runWorkloadVia(t testing.TB, cfg gscalar.Config, arch gscalar.Arch, abbr string, scale int) (gscalar.Result, error) {
	t.Helper()
	s, err := gscalar.NewSession(cfg, arch)
	if err != nil {
		t.Fatal(err)
	}
	return s.RunWorkload(context.Background(), abbr, scale)
}

// runDet simulates one (arch, workload) point with the given worker count.
func runDet(t *testing.T, arch gscalar.Arch, abbr string, workers int) gscalar.Result {
	t.Helper()
	cfg := gscalar.DefaultConfig()
	cfg.Workers = workers
	res, err := runWorkloadVia(t, cfg, arch, abbr, 1)
	if err != nil {
		t.Fatalf("%s on %s (workers=%d): %v", abbr, arch, workers, err)
	}
	return res
}

// stripExecMeta clears the fields that record how a run executed (chip loop
// and resolved worker count) rather than what it simulated, so results from
// different execution modes can be compared for simulation identity.
func stripExecMeta(r gscalar.Result) gscalar.Result {
	r.ExecMode = ""
	r.ResolvedWorkers = 0
	return r
}

// assertIdentical compares two results bit-for-bit: cycles, every
// statistic, and the floating-point energy/power numbers, which must match
// exactly — not within a tolerance — for the phased loop to count as
// deterministic. The execution metadata (ExecMode, ResolvedWorkers) is
// excluded: it legitimately differs between the runs whose simulated
// outputs must not.
func assertIdentical(t *testing.T, abbr string, arch gscalar.Arch, a, b gscalar.Result) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("%s/%s: cycles %d vs %d", abbr, arch, a.Cycles, b.Cycles)
	}
	if a.EnergyJ != b.EnergyJ {
		t.Errorf("%s/%s: energy %v vs %v", abbr, arch, a.EnergyJ, b.EnergyJ)
	}
	if !reflect.DeepEqual(stripExecMeta(a), stripExecMeta(b)) {
		t.Errorf("%s/%s: results differ beyond cycles/energy:\n%+v\nvs\n%+v", abbr, arch, a, b)
	}
}

// TestWorkerCountDeterminism runs the same (config, workload) with one and
// with eight phased workers and requires bit-identical Results. In short
// mode a 3-workload × 2-architecture subset runs; the full 17-workload
// registry (the PR's acceptance bar) runs without -short.
func TestWorkerCountDeterminism(t *testing.T) {
	workloadSet := gscalar.Workloads()
	if testing.Short() {
		workloadSet = []string{"HS", "MQ", "SAD"}
	}
	for _, arch := range []gscalar.Arch{gscalar.Baseline, gscalar.GScalar} {
		for _, abbr := range workloadSet {
			one := runDet(t, arch, abbr, 1)
			eight := runDet(t, arch, abbr, 8)
			assertIdentical(t, abbr, arch, one, eight)
		}
	}
}

// TestWorkerCountDeterminismRepeat guards against run-to-run nondeterminism
// of the parallel loop itself (two 8-worker runs must also agree).
func TestWorkerCountDeterminismRepeat(t *testing.T) {
	for _, abbr := range []string{"HS", "PF"} {
		a := runDet(t, gscalar.GScalar, abbr, 8)
		b := runDet(t, gscalar.GScalar, abbr, 8)
		assertIdentical(t, abbr, gscalar.GScalar, a, b)
	}
}
