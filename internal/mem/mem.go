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

// Coalesce reduces the per-lane byte addresses of a warp memory access to
// the set of distinct LineSize-aligned transactions, in ascending order.
// Only lanes selected by active are considered. The paper's baseline memory
// pipeline performs exactly this coalescing; a scalar-eligible memory
// instruction produces one transaction.
func Coalesce(addrs []uint32, active uint64) []uint32 {
	return CoalesceInto(nil, addrs, active)
}

// CoalesceInto is Coalesce writing into buf (reset to length zero first), so
// the per-access scratch can be reused across calls without allocating.
// Active lanes are bit-iterated (inactive lanes cost nothing), and the
// dominant access shapes — a warp touching one line, or lane addresses
// ascending — take a compare-and-append fast path; only genuinely unsorted
// gathers fall back to sorted insertion (at most one line per lane, so
// insertion still beats a map + sort there).
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
	sets     [][]cacheLine
	assoc    int
	setShift uint
	setMask  uint32
	lruClock uint64
}

type cacheLine struct {
	tag   uint32
	valid bool
	lru   uint64
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
	c := &Cache{
		sets:  make([][]cacheLine, nsets),
		assoc: assoc,
	}
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, assoc)
	}
	shift := uint(7) // log2(LineSize)
	c.setShift = shift
	c.setMask = uint32(nsets - 1)
	return c
}

// Lookup probes for the line containing addr, allocating it on a miss when
// allocate is set. It reports whether the access hit.
func (c *Cache) Lookup(addr uint32, allocate bool) bool {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.setShift
	c.lruClock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.lruClock
			return true
		}
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
	return false
}

// Probe reports whether the line containing addr is present, without
// touching LRU state or allocating. It is the read-only Lookup the relaxed
// epoch mode uses to estimate access latency from the compute phase: many
// goroutines may Probe one cache concurrently as long as nothing mutates it,
// which the epoch rendezvous guarantees (all Lookup/Invalidate calls happen
// in the serial commit phase).
func (c *Cache) Probe(addr uint32) bool {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.setShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Invalidate drops the line containing addr if present (used by
// write-evict stores).
func (c *Cache) Invalidate(addr uint32) {
	set := c.sets[(addr>>c.setShift)&c.setMask]
	tag := addr >> c.setShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
		}
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
	if s.l2.Lookup(line, !write) {
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

// DeferredTx is one beyond-L1 transaction buffered by the relaxed epoch
// mode: the issuing core cycle, the 128-byte line, and the direction.
type DeferredTx struct {
	Cycle uint64
	Line  uint32
	Write bool
}

// TxBuffer accumulates an SM's deferred transactions over one epoch, in
// issue order (ascending cycle), so committing buffers SM by SM yields the
// deterministic (SM-index, cycle) commit order the relaxed mode promises.
// The backing slice is reused across epochs, so steady-state deferral
// allocates nothing.
type TxBuffer struct {
	txs []DeferredTx
}

// Defer appends one transaction issued at the given core cycle.
func (b *TxBuffer) Defer(cycle uint64, line uint32, write bool) {
	b.txs = append(b.txs, DeferredTx{Cycle: cycle, Line: line, Write: write})
}

// Len returns the number of buffered transactions.
func (b *TxBuffer) Len() int { return len(b.txs) }

// CommitDeferred applies a buffer's transactions to the shared L2/DRAM
// system in buffer order, each at its recorded issue cycle, and empties the
// buffer. onTx (when non-nil) receives each transaction's depth outcome for
// statistics and energy accounting. It must only run serially — SM.Commit
// calls it for each SM in ascending SM-id order at the relaxed schedule's
// epoch rendezvous. Completion times are deliberately not returned: the issuing
// SMs already ran ahead on EstimateAccess values, and the commit's job is
// solely to evolve shared state (L2 contents, channel backlog)
// deterministically for the next epoch's estimates.
func (s *System) CommitDeferred(b *TxBuffer, onTx func(AccessKind)) {
	for i := range b.txs {
		tx := &b.txs[i]
		_, kind := s.AccessL2(tx.Cycle, tx.Line, tx.Write)
		if onTx != nil {
			onTx(kind)
		}
	}
	b.txs = b.txs[:0]
}
