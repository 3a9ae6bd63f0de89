package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCoalesceSingleLine(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = 0x1000 + uint32(i)*4
	}
	lines := CoalesceInto(nil, addrs, 0xFFFFFFFF)
	if len(lines) != 1 || lines[0] != 0x1000 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestCoalesceStrided(t *testing.T) {
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(i) * 256 // one line each
	}
	lines := CoalesceInto(nil, addrs, 0xFFFFFFFF)
	if len(lines) != 32 {
		t.Fatalf("lines = %d, want 32", len(lines))
	}
}

func TestCoalesceMasked(t *testing.T) {
	addrs := []uint32{0, 4, 1000, 2000}
	lines := CoalesceInto(nil, addrs, 0b0011)
	if len(lines) != 1 || lines[0] != 0 {
		t.Fatalf("lines = %v", lines)
	}
	if got := CoalesceInto(nil, addrs, 0); len(got) != 0 {
		t.Fatalf("empty mask lines = %v", got)
	}
}

// TestCoalesceProperties: every active address is covered by exactly one
// returned line; lines are sorted and unique.
func TestCoalesceProperties(t *testing.T) {
	f := func(raw [16]uint32, mask uint16) bool {
		addrs := raw[:]
		lines := CoalesceInto(nil, addrs, uint64(mask))
		seen := map[uint32]bool{}
		for i, l := range lines {
			if l%LineSize != 0 {
				return false
			}
			if seen[l] {
				return false
			}
			seen[l] = true
			if i > 0 && lines[i-1] >= l {
				return false
			}
		}
		for lane := 0; lane < 16; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			if !seen[addrs[lane]&^uint32(LineSize-1)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(16<<10, 4)
	if hit, _ := c.Lookup(0x1000, true); hit {
		t.Fatal("cold hit")
	}
	if hit, _ := c.Lookup(0x1000, true); !hit {
		t.Fatal("warm miss")
	}
	if hit, _ := c.Lookup(0x1040, true); !hit {
		t.Fatal("same-line offset miss")
	}
	if hit, _ := c.Lookup(0x1080, true); hit {
		t.Fatal("adjacent-line hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 4-way cache: fill one set with 5 distinct tags; the first must be
	// evicted.
	c := NewCache(4*LineSize, 4) // 1 set
	for i := 0; i < 5; i++ {
		c.Lookup(uint32(i)*LineSize, true)
	}
	if hit, _ := c.Lookup(0, true); hit {
		t.Fatal("LRU line not evicted")
	}
	if hit, _ := c.Lookup(4*LineSize, true); !hit {
		t.Fatal("MRU line evicted")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(16<<10, 4)
	c.Lookup(0x2000, true)
	c.Invalidate(0x2000)
	if hit, _ := c.Lookup(0x2000, false); hit {
		t.Fatal("invalidated line hit")
	}
}

// TestCacheFill: a hit reports the fill cycle SetFill recorded on its line,
// and a line allocated by a miss starts with none.
func TestCacheFill(t *testing.T) {
	c := NewCache(16<<10, 4)
	c.Lookup(0x3000, true)
	if hit, fill := c.Lookup(0x3000, true); !hit || fill != 0 {
		t.Fatalf("fresh line: hit %v fill %d, want a hit with fill 0", hit, fill)
	}
	c.SetFill(0x3040, 500) // any address in the line
	if hit, fill := c.Lookup(0x3000, true); !hit || fill != 500 {
		t.Fatalf("after SetFill: hit %v fill %d, want a hit with fill 500", hit, fill)
	}
	if hit, fill := c.Lookup(0x3080, true); hit || fill != 0 {
		t.Fatalf("other line: hit %v fill %d, want a miss with fill 0", hit, fill)
	}
}

// TestSetFillTouchesOnlyTheFill: SetFill on an absent line changes nothing,
// and on a present one changes only that line's fill, never LRU state.
func TestSetFillTouchesOnlyTheFill(t *testing.T) {
	c := NewCache(4*LineSize, 4) // 1 set
	for i := 0; i < 4; i++ {
		c.Lookup(uint32(i)*LineSize, true)
	}
	lines, clock := slices.Clone(c.lines), c.lruClock
	c.SetFill(9*LineSize, 77)
	if !slices.Equal(c.lines, lines) || c.lruClock != clock {
		t.Fatal("SetFill on an absent line changed the cache")
	}
	c.SetFill(0, 77) // the LRU line
	lines[slices.IndexFunc(lines, func(l cacheLine) bool { return l.tag == 0 })].fill = 77
	if !slices.Equal(c.lines, lines) || c.lruClock != clock {
		t.Fatalf("SetFill on a present line: lines %+v clock %d, want %+v clock %d", c.lines, c.lruClock, lines, clock)
	}
	// Line 0 is still the LRU victim.
	c.Lookup(4*LineSize, true)
	if hit, _ := c.Lookup(0, false); hit {
		t.Fatal("SetFill refreshed the line's LRU position")
	}
}

// TestFillLeavesWithItsLine: an evicted or invalidated line loses its fill,
// so the line a later miss allocates at the same address starts without one.
func TestFillLeavesWithItsLine(t *testing.T) {
	c := NewCache(4*LineSize, 4) // 1 set
	c.Lookup(0, true)
	c.SetFill(0, 900)
	for i := 1; i <= 4; i++ { // evicts line 0
		c.Lookup(uint32(i)*LineSize, true)
	}
	c.Lookup(0, true)
	if hit, fill := c.Lookup(0, true); !hit || fill != 0 {
		t.Fatalf("after eviction: hit %v fill %d, want a hit with fill 0", hit, fill)
	}
	c.SetFill(0, 900)
	c.Invalidate(0)
	c.Lookup(0, true)
	if hit, fill := c.Lookup(0, true); !hit || fill != 0 {
		t.Fatalf("after invalidation: hit %v fill %d, want a hit with fill 0", hit, fill)
	}
}

func TestSystemLatencyOrdering(t *testing.T) {
	s := NewSystem(6, 768<<10)
	// Cold: DRAM. Warm: L2 hit, strictly faster.
	cold, kind := s.AccessL2(100, 0x4000, false)
	if kind != AccessDRAM {
		t.Fatalf("cold kind = %v", kind)
	}
	warm, kind := s.AccessL2(100, 0x4000, false)
	if kind != AccessL2Hit {
		t.Fatalf("warm kind = %v", kind)
	}
	if warm >= cold {
		t.Fatalf("L2 hit (%d) not faster than DRAM (%d)", warm, cold)
	}
}

func TestDRAMChannelSerialisation(t *testing.T) {
	const channels = 6
	s := NewSystem(channels, 1<<10) // tiny L2 so everything misses
	// Two lines mapping to the same channel, issued at the same cycle,
	// must serialise by the burst time.
	lineA := uint32(0)
	lineB := uint32(LineSize * channels)
	if s.channelOf(lineA) != s.channelOf(lineB) {
		t.Fatal("test lines not on same channel")
	}
	a, _ := s.AccessL2(0, lineA, false)
	b, _ := s.AccessL2(0, lineB, false)
	if b-a != DRAMBurst {
		t.Fatalf("serialisation gap = %d, want %d", b-a, DRAMBurst)
	}
	// A line on a different channel does not queue behind them.
	lineC := uint32(LineSize)
	c, _ := s.AccessL2(0, lineC, false)
	if c != a {
		t.Fatalf("other channel delayed: %d vs %d", c, a)
	}
}

func TestWriteDrainsInBackground(t *testing.T) {
	s := NewSystem(6, 768<<10)
	// Prime the line so the write hits L2.
	s.AccessL2(0, 0x8000, false)
	done, kind := s.AccessL2(1000, 0x8000, true)
	if kind != AccessL2Hit {
		t.Fatalf("write kind = %v", kind)
	}
	want := uint64(1000 + NoCLatency*2 + L2Latency)
	if done != want {
		t.Fatalf("write-hit done = %d, want %d (no DRAM wait)", done, want)
	}
}
