package gscalar

import (
	"context"
	"testing"
)

// newSessionT builds a Session or fails the test.
func newSessionT(t *testing.T, cfg Config, arch Arch) *Session {
	t.Helper()
	s, err := NewSession(cfg, arch)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sequenceKernels assembles a producer kernel and a consumer that reads
// what the producer stored.
func sequenceKernels(t *testing.T) (producer, consumer *Program) {
	t.Helper()
	producer, err := Assemble(`
.kernel producer
	mov  r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	imul r3, r2, 3
	shl  r4, r2, 2
	iadd r5, $0, r4
	stg  [r5], r3
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	consumer, err = Assemble(`
.kernel consumer
	mov  r1, %tid.x
	imad r2, %ctaid.x, %ntid.x, r1
	shl  r3, r2, 2
	iadd r4, $0, r3
	ldg  r5, [r4]
	iadd r5, r5, 100
	iadd r6, $1, r3
	stg  [r6], r5
	exit
`)
	if err != nil {
		t.Fatal(err)
	}
	return producer, consumer
}

// TestRunSequence runs a producer kernel followed by a dependent consumer
// kernel over shared memory — the shape of real multi-kernel applications
// (e.g. srad's two passes).
func TestRunSequence(t *testing.T) {
	producer, consumer := sequenceKernels(t)
	const n = 1024
	mem := NewMemory()
	mid := mem.Alloc(n * 4)
	out := mem.Alloc(n * 4)
	seq := []KernelLaunch{
		{producer, Launch{GridX: n / 128, BlockX: 128, Params: []uint32{mid}}},
		{consumer, Launch{GridX: n / 128, BlockX: 128, Params: []uint32{mid, out}}},
	}
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	res, err := newSessionT(t, cfg, GScalar).RunSequence(context.Background(), mem, seq)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mem.ReadU32(out, n) {
		if v != uint32(i*3+100) {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3+100)
		}
	}

	// The sequence totals must exceed either launch alone.
	soloMem := NewMemory()
	soloMid := soloMem.Alloc(n * 4)
	solo, err := newSessionT(t, cfg, GScalar).Run(context.Background(), producer,
		Launch{GridX: n / 128, BlockX: 128, Params: []uint32{soloMid}}, soloMem)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= solo.Cycles {
		t.Errorf("sequence cycles %d not greater than solo %d", res.Cycles, solo.Cycles)
	}
	if res.WarpInsts != uint64((n/32)*(7+9)) { // producer 7 + consumer 9 instructions per warp
		t.Errorf("sequence warp insts = %d, want %d", res.WarpInsts, (n/32)*(7+9))
	}
	if res.EnergyJ <= solo.EnergyJ {
		t.Errorf("sequence energy %v not greater than solo %v", res.EnergyJ, solo.EnergyJ)
	}
}

// TestRunSequenceRecordsExecMode: a sequence's Result records how it ran —
// the last launch's schedule and resolved worker count — exactly as its
// Metrics do.
func TestRunSequenceRecordsExecMode(t *testing.T) {
	producer, consumer := sequenceKernels(t)
	const n = 1024
	for _, tc := range []struct {
		workers  int
		mode     string
		resolved int
	}{
		{0, "serial", 1},
		{2, "phased", 2},
	} {
		mem := NewMemory()
		mid, out := mem.Alloc(n*4), mem.Alloc(n*4)
		seq := []KernelLaunch{
			{producer, Launch{GridX: n / 128, BlockX: 128, Params: []uint32{mid}}},
			{consumer, Launch{GridX: n / 128, BlockX: 128, Params: []uint32{mid, out}}},
		}
		cfg := DefaultConfig()
		cfg.NumSMs = 2
		cfg.Workers = tc.workers
		s := newSessionT(t, cfg, GScalar)
		s.Telemetry = TelemetryOptions{Enabled: true}
		res, err := s.RunSequence(context.Background(), mem, seq)
		if err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		if m == nil {
			t.Fatal("telemetry collected no metrics")
		}
		if res.ExecMode != tc.mode || res.ResolvedWorkers != tc.resolved {
			t.Errorf("Workers=%d: Result ran %q with %d workers, want %q with %d",
				tc.workers, res.ExecMode, res.ResolvedWorkers, tc.mode, tc.resolved)
		}
		if m.ExecMode != res.ExecMode || m.Workers != res.ResolvedWorkers {
			t.Errorf("Workers=%d: Result %q/%d disagrees with Metrics %q/%d",
				tc.workers, res.ExecMode, res.ResolvedWorkers, m.ExecMode, m.Workers)
		}
	}
}

func TestRunSequenceEmpty(t *testing.T) {
	s := newSessionT(t, DefaultConfig(), Baseline)
	if _, err := s.RunSequence(context.Background(), NewMemory(), nil); err == nil {
		t.Fatal("empty sequence accepted")
	}
}
