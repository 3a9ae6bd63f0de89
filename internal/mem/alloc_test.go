package mem

import "testing"

// TestAccessPathZeroAlloc checks the per-transaction memory hot path: line
// coalescing into a caller-owned buffer, L1 lookups, and L2/DRAM accesses
// must not allocate once warm.
func TestAccessPathZeroAlloc(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(i) * 4
	}
	// Strided second half so coalescing covers the append and dedup paths.
	for i := 16; i < 32; i++ {
		addrs[i] = uint32(i) * 512
	}
	buf := CoalesceInto(nil, addrs, ^uint64(0)) // warm the buffer

	c := NewCache(16<<10, 4)
	sys := NewSystem(6, 128<<10)
	now := uint64(0)

	allocs := testing.AllocsPerRun(1000, func() {
		buf = CoalesceInto(buf, addrs, ^uint64(0))
		for _, line := range buf {
			c.Lookup(line, true)
			sys.AccessL2(now, line, false)
		}
		now++
	})
	if allocs != 0 {
		t.Errorf("memory access path allocates %.2f objects/access, want 0", allocs)
	}
}

// TestNewCacheAllocs: building a cache allocates a constant number of
// objects, whatever its set count (the sets share one line array), so an
// L2 costs no more allocations than an L1.
func TestNewCacheAllocs(t *testing.T) {
	l1 := testing.AllocsPerRun(10, func() { NewCache(16<<10, 4) })
	l2 := testing.AllocsPerRun(10, func() { NewCache(768<<10, 16) })
	if l1 != l2 || l2 > 2 {
		t.Errorf("NewCache allocates %.0f objects for 32 sets and %.0f for 256, want the same, at most 2 (the cache and its lines)", l1, l2)
	}
}
