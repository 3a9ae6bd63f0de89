// Package mem models the GPU memory subsystem: per-warp address coalescing,
// a set-associative write-through L1 per SM, a shared banked L2, an
// interconnect, and a bandwidth-limited multi-channel DRAM. Timing is
// latency+queue based: an access returns the cycle its data arrives back at
// the SM, and DRAM channels serialise transactions at their burst rate.
package mem

import (
	"math/bits"

	"gscalar/internal/telemetry"
)

// LineSize is the memory transaction granularity in bytes (one L1/L2 line).
const LineSize = 128

// CoalesceInto reduces the per-lane byte addresses of a warp memory access
// to the set of distinct LineSize-aligned transactions, in ascending order.
// Only lanes selected by active are considered. The paper's baseline memory
// pipeline performs exactly this coalescing; a scalar-eligible memory
// instruction produces one transaction. The lines are written into buf
// (reset to length zero first), so the per-access scratch can be reused
// across calls without allocating. Active lanes are bit-iterated (inactive
// lanes cost nothing), and the dominant access shapes — a warp touching one
// line, or lane addresses ascending — take a compare-and-append fast path;
// only genuinely unsorted gathers fall back to sorted insertion (at most
// one line per lane, so insertion still beats a map + sort there).
func CoalesceInto(buf []uint32, addrs []uint32, active uint64) []uint32 {
	lines := buf[:0]
	m := active
	if len(addrs) < 64 {
		m &= 1<<uint(len(addrs)) - 1
	}
	for ; m != 0; m &= m - 1 {
		line := addrs[bits.TrailingZeros64(m)] &^ (LineSize - 1)
		if n := len(lines); n > 0 {
			if last := lines[n-1]; line == last {
				continue
			} else if line > last {
				lines = append(lines, line)
				continue
			}
			// Out-of-order lane: insert into the sorted prefix, skipping
			// duplicates.
			i := n
			for i > 0 && lines[i-1] > line {
				i--
			}
			if i > 0 && lines[i-1] == line {
				continue
			}
			lines = append(lines, 0)
			copy(lines[i+1:], lines[i:])
			lines[i] = line
			continue
		}
		lines = append(lines, line)
	}
	return lines
}

// Cache is a set-associative cache with true-LRU replacement. It tracks
// tags only (data is functionally held by kernel.Memory). The LRU clock is
// per-cache (not global) so independent caches — e.g. the per-SM L1s of a
// parallel simulation — never share mutable state; victim selection only
// ever compares timestamps within one cache, so per-cache clocks produce
// bit-identical replacement decisions to a global clock.
type Cache struct {
	lines    []cacheLine // set s is lines[s*assoc : (s+1)*assoc]
	assoc    int
	setShift uint
	setMask  uint32
	lruClock uint64
}

// cacheLine is one way of a set. fill is the cycle the line's data lands,
// as SetFill recorded it (0 until then). Like GPGPU-Sim's RESERVED tag
// state, it lets a hit on a line whose fill is still in flight wait for
// that fill instead of hitting at once.
type cacheLine struct {
	tag   uint32
	valid bool
	lru   uint64
	fill  uint64
}

// NewCache builds a cache of capacity bytes with the given associativity
// and LineSize lines. capacity must be a multiple of assoc*LineSize.
func NewCache(capacity, assoc int) *Cache {
	nsets := capacity / (assoc * LineSize)
	if nsets < 1 {
		nsets = 1
	}
	// Round down to a power of two for cheap indexing.
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	return &Cache{
		lines:    make([]cacheLine, nsets*assoc),
		assoc:    assoc,
		setShift: 7, // log2(LineSize)
		setMask:  uint32(nsets - 1),
	}
}

// find returns the ways of the set addr maps to, addr's tag, and the valid
// line holding it (nil if absent). It is the one line search of Lookup,
// Probe, SetFill and Invalidate.
func (c *Cache) find(addr uint32) (set []cacheLine, tag uint32, line *cacheLine) {
	tag = addr >> c.setShift
	base := int(tag&c.setMask) * c.assoc
	set = c.lines[base : base+c.assoc]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set, tag, &set[i]
		}
	}
	return set, tag, nil
}

// Lookup probes for the line containing addr, allocating it on a miss when
// allocate is set. It reports whether the access hit and, on a hit, the
// cycle the line's fill lands (see SetFill).
func (c *Cache) Lookup(addr uint32, allocate bool) (hit bool, fill uint64) {
	set, tag, line := c.find(addr)
	c.lruClock++
	if line != nil {
		line.lru = c.lruClock
		return true, line.fill
	}
	if allocate {
		victim := 0
		for i := 1; i < len(set); i++ {
			if !set[i].valid {
				victim = i
				break
			}
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		set[victim] = cacheLine{tag: tag, valid: true, lru: c.lruClock}
	}
	return false, 0
}

// SetFill records done as the cycle the fill of the line containing addr
// lands. It does nothing if the line is absent and never touches LRU state.
func (c *Cache) SetFill(addr uint32, done uint64) {
	if _, _, line := c.find(addr); line != nil {
		line.fill = done
	}
}

// Probe reports whether the line containing addr is present, without
// touching LRU state or allocating. It is the read-only Lookup the relaxed
// epoch mode uses to estimate access latency from the compute phase: many
// goroutines may Probe one cache concurrently as long as nothing mutates it,
// which the epoch rendezvous guarantees (all Lookup/Invalidate calls happen
// in the serial commit phase).
func (c *Cache) Probe(addr uint32) bool {
	_, _, line := c.find(addr)
	return line != nil
}

// Invalidate drops the line containing addr if present (used by
// write-evict stores).
func (c *Cache) Invalidate(addr uint32) {
	if _, _, line := c.find(addr); line != nil {
		line.valid = false
	}
}

// Timing holds the latency/bandwidth parameters of the memory system, in
// core cycles. The NoC runs at half the core clock (Table 1); its cost is
// folded into the latencies.
type Timing struct {
	L1HitLatency  int
	SharedLatency int
	NoCLatency    int // SM <-> L2 one-way
	L2Latency     int
	DRAMLatency   int
	DRAMBurst     int // channel occupancy per 128-byte transaction
	NumChannels   int
}

// DefaultTiming returns GTX-480-like parameters.
func DefaultTiming() Timing {
	return Timing{
		L1HitLatency:  30,
		SharedLatency: 24,
		NoCLatency:    40,
		L2Latency:     80,
		DRAMLatency:   220,
		DRAMBurst:     6,
		NumChannels:   6,
	}
}

// AccessKind discriminates the outcome of a global access for statistics
// and energy accounting.
type AccessKind uint8

// Access outcomes.
const (
	AccessL1Hit AccessKind = iota
	AccessL2Hit
	AccessDRAM
)

// System is the shared (chip-level) part of the memory hierarchy: L2 and
// DRAM channels. SMs own their L1s and call into System on misses.
type System struct {
	timing   Timing
	l2       *Cache
	chanFree []uint64
	// chanTx counts DRAM transactions per channel for telemetry. drainToDRAM
	// runs only from SM.Commit, which the chip loop calls serially, so plain
	// increments are race-free.
	chanTx []uint64
}

// NewSystem builds the chip memory system with an l2Bytes L2.
func NewSystem(timing Timing, l2Bytes int) *System {
	return &System{
		timing:   timing,
		l2:       NewCache(l2Bytes, 16),
		chanFree: make([]uint64, timing.NumChannels),
		chanTx:   make([]uint64, timing.NumChannels),
	}
}

// RegisterTelemetry registers the per-channel DRAM transaction counters.
func (s *System) RegisterTelemetry(reg *telemetry.Registry) {
	for ch := range s.chanTx {
		reg.Counter("mem.dram_chan_tx", ch, &s.chanTx[ch])
	}
}

// channelOf statically maps a line address to a DRAM channel.
func (s *System) channelOf(line uint32) int {
	return int(line/LineSize) % s.timing.NumChannels
}

// AccessL2 performs the post-L1 part of a global access starting at core
// cycle now, returning the cycle the data is available back at the SM and
// how deep the access went. Writes are write-through to DRAM (no L2
// allocate on store miss), loads allocate in L2.
func (s *System) AccessL2(now uint64, line uint32, write bool) (done uint64, kind AccessKind) {
	t := s.timing
	arriveL2 := now + uint64(t.NoCLatency)
	if hit, _ := s.l2.Lookup(line, !write); hit {
		if write {
			// Write hit updates L2 and drains to DRAM in the background;
			// the SM does not wait for DRAM.
			s.drainToDRAM(arriveL2, line)
		}
		return arriveL2 + uint64(t.L2Latency) + uint64(t.NoCLatency), AccessL2Hit
	}
	// L2 miss: go to the line's DRAM channel, serialised at burst rate.
	ready := s.drainToDRAM(arriveL2+uint64(t.L2Latency), line)
	return ready + uint64(t.NoCLatency), AccessDRAM
}

// drainToDRAM occupies the line's channel and returns when the transaction
// completes (including DRAM latency).
func (s *System) drainToDRAM(at uint64, line uint32) uint64 {
	t := s.timing
	ch := s.channelOf(line)
	s.chanTx[ch]++
	start := at
	if s.chanFree[ch] > start {
		start = s.chanFree[ch]
	}
	s.chanFree[ch] = start + uint64(t.DRAMBurst)
	return start + uint64(t.DRAMBurst) + uint64(t.DRAMLatency)
}

// Timing returns the system's timing parameters.
func (s *System) Timing() Timing { return s.timing }

// EstimateAccess predicts what AccessL2 would return for a load issued at
// core cycle now, without mutating any shared state: the L2 probe skips the
// LRU update and never allocates, and the DRAM-channel backlog is read but
// not advanced. The relaxed epoch mode calls it from the concurrent compute
// phase — it is safe exactly because the shared memory system is frozen
// between epoch rendezvous — and feeds the estimate to the SM as the load's
// completion time. The estimate ignores queueing behind transactions
// deferred in the same epoch (they have not committed yet), which is the
// timing slack the relaxed mode's accuracy bound covers; backlog committed
// in earlier epochs is fully visible through chanFree.
func (s *System) EstimateAccess(now uint64, line uint32) uint64 {
	t := s.timing
	arriveL2 := now + uint64(t.NoCLatency)
	if s.l2.Probe(line) {
		return arriveL2 + uint64(t.L2Latency) + uint64(t.NoCLatency)
	}
	at := arriveL2 + uint64(t.L2Latency)
	start := at
	if free := s.chanFree[s.channelOf(line)]; free > start {
		start = free
	}
	return start + uint64(t.DRAMBurst) + uint64(t.DRAMLatency) + uint64(t.NoCLatency)
}
