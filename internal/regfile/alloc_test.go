package regfile

import "testing"

// TestArbitrationZeroAlloc checks the per-cycle port-arbitration hot path:
// NewCycle is a generation bump and TryServe a pair of compares, neither may
// allocate.
func TestArbitrationZeroAlloc(t *testing.T) {
	f := New(16)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		f.NewCycle()
		f.TryServe(i%16, PortMain)
		f.TryServe(i%16, PortBVR)
		f.TryServe(0, PortScalarBank)
		i++
	})
	if allocs != 0 {
		t.Errorf("arbitration allocates %.2f objects/cycle, want 0", allocs)
	}
}
