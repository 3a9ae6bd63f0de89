package telemetry

import (
	"reflect"
	"testing"
)

// TestCounterFoldAcrossLaunches checks the sequence semantics: counters
// registered per launch accumulate into one final value, while gauges are
// last-wins (a cumulative power meter registered by every launch must report
// the end-of-run reading, not a sum of cumulative readings).
func TestCounterFoldAcrossLaunches(t *testing.T) {
	r := NewRecorder()

	// Launch 1: fresh per-launch counter state.
	r.BeginLaunch()
	c1 := uint64(10)
	g1 := 3.5
	r.Registry().Counter("sm.warp_insts", 0, &c1)
	r.Registry().Gauge("power.total_pj", InstanceChip, func() float64 { return g1 })

	// Launch 2: the previous launch folds; new registrations take over.
	r.BeginLaunch()
	c2 := uint64(32)
	g2 := 9.25
	r.Registry().Counter("sm.warp_insts", 0, &c2)
	r.Registry().Gauge("power.total_pj", InstanceChip, func() float64 { return g2 })

	r.Finalize()

	want := []CounterValue{
		{Name: "power.total_pj", Instance: InstanceChip, Value: 9.25},
		{Name: "sm.warp_insts", Instance: 0, Value: 42},
	}
	if got := r.Finals(); !reflect.DeepEqual(got, want) {
		t.Errorf("Finals() = %+v, want %+v", got, want)
	}
}

// TestFinalizeReadsLateMutations checks that fold reads the counter through
// its pointer at fold time, not at registration time — the owner keeps
// incrementing the field for the whole launch.
func TestFinalizeReadsLateMutations(t *testing.T) {
	r := NewRecorder()
	r.BeginLaunch()
	v := uint64(0)
	r.Registry().Counter("sm.thread_insts", 2, &v)
	v = 1 << 40 // simulated work after registration
	r.Finalize()
	got := r.Finals()
	if len(got) != 1 || got[0].Value != float64(uint64(1)<<40) {
		t.Errorf("Finals() = %+v, want single counter of 2^40", got)
	}
}

// TestNewSampleDedupe checks that a final sample coinciding with the last
// checkpoint sample is dropped, and that SetCycleBase keeps the cycle axis
// sequence-global.
func TestNewSampleDedupe(t *testing.T) {
	r := NewRecorder()
	r.BeginLaunch()
	if s := r.NewSample(100); s == nil {
		t.Fatal("first sample at cycle 100 rejected")
	}
	if s := r.NewSample(100); s != nil {
		t.Fatal("duplicate sample at cycle 100 accepted")
	}

	// Second launch of a sequence: launch-local cycles restart, the base
	// keeps the global axis monotonic — including dedupe against the last
	// sample of the previous launch.
	r.SetCycleBase(100)
	if s := r.NewSample(0); s != nil {
		t.Fatal("sample at global cycle 100 (base 100 + local 0) not deduped")
	}
	s := r.NewSample(50)
	if s == nil {
		t.Fatal("sample at global cycle 150 rejected")
	}
	if s.Cycle != 150 {
		t.Errorf("sample cycle = %d, want 150 (base 100 + local 50)", s.Cycle)
	}
	if got := len(r.Samples()); got != 2 {
		t.Errorf("len(Samples()) = %d, want 2", got)
	}
}

// TestFinalsSorted checks the deterministic export order: by name, then by
// instance.
func TestFinalsSorted(t *testing.T) {
	r := NewRecorder()
	r.BeginLaunch()
	vs := make([]uint64, 4)
	r.Registry().Counter("b.metric", 1, &vs[0])
	r.Registry().Counter("b.metric", 0, &vs[1])
	r.Registry().Counter("a.metric", 3, &vs[2])
	r.Registry().Counter("a.metric", InstanceChip, &vs[3])
	r.Finalize()
	got := r.Finals()
	order := make([]metricKey, len(got))
	for i, c := range got {
		order[i] = metricKey{c.Name, c.Instance}
	}
	want := []metricKey{
		{"a.metric", InstanceChip}, {"a.metric", 3},
		{"b.metric", 0}, {"b.metric", 1},
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("Finals order = %v, want %v", order, want)
	}
}

// TestFinalsEmptyIsNil checks that a recorder with no registrations (a run
// cut before its first launch) reports nil, which exports as "counters":
// null.
func TestFinalsEmptyIsNil(t *testing.T) {
	r := NewRecorder()
	r.Finalize()
	if got := r.Finals(); got != nil {
		t.Errorf("Finals() = %#v, want nil", got)
	}
}
