// Package kernel defines the program, launch-configuration and device-memory
// abstractions shared by the assembler and the simulator.
package kernel

import (
	"fmt"
	"math"
	"sort"

	"gscalar/internal/isa"
)

// Program is an assembled kernel: a flat instruction vector with resolved
// branch targets and reconvergence PCs.
type Program struct {
	Name    string
	Code    []isa.Instruction
	Labels  map[string]int // label -> PC
	NumRegs int            // highest GPR index used + 1

	// meta caches per-PC decode products (class, latency, destination kind)
	// so the issue/dispatch hot path never re-derives them per dynamic
	// instruction. Built by BuildMeta; nil on hand-constructed Programs
	// until their first simulation.
	meta []InstMeta
}

// InstMeta is the decoded metadata of one static instruction, computed once
// per PC instead of per dynamic execution.
type InstMeta struct {
	Class      isa.Class
	Latency    uint16 // execution latency (isa.Latency)
	OccMul     uint8  // dispatch-occupancy multiplier (iterative divides)
	FrontEnd   bool   // completes in the front end (control ops and nop)
	WritesReg  bool
	WritesPred bool
	DstReg     uint8 // valid when WritesReg
	DstPred    uint8 // valid when WritesPred
}

// At returns the instruction at pc.
func (p *Program) At(pc int) *isa.Instruction { return &p.Code[pc] }

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Code) }

// Meta returns the decoded metadata of the instruction at pc. BuildMeta
// must have run first (the assembler and the simulator entry points do).
func (p *Program) Meta(pc int) *InstMeta { return &p.meta[pc] }

// BuildMeta populates the per-PC metadata cache. It is idempotent, and NOT
// safe to call concurrently with itself or with simulation: callers that
// share one Program across goroutines (the chip loop's worker pool, the
// experiment fan-out) must build the cache first, which the assembler and
// sm.New both do before any worker starts.
func (p *Program) BuildMeta() {
	if len(p.meta) == len(p.Code) && p.meta != nil {
		return
	}
	meta := make([]InstMeta, len(p.Code))
	for pc := range p.Code {
		in := &p.Code[pc]
		m := &meta[pc]
		m.Class = in.Class()
		m.Latency = uint16(isa.Latency(in.Op))
		m.OccMul = 1
		switch in.Op {
		case isa.OpIDiv, isa.OpIRem:
			m.OccMul = 8
		case isa.OpFDiv:
			m.OccMul = 4
		}
		m.FrontEnd = m.Class == isa.ClassCtrl || in.Op == isa.OpNop
		m.DstReg, m.WritesReg = in.WritesReg()
		m.DstPred, m.WritesPred = in.WritesPred()
	}
	p.meta = meta
}

// Dim is a 2-D extent (x, y).
type Dim struct{ X, Y int }

// Count returns X*Y.
func (d Dim) Count() int { return d.X * d.Y }

// LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	Grid        Dim                   // CTAs in the grid
	Block       Dim                   // threads per CTA
	Params      [isa.NumParams]uint32 // uniform 32-bit kernel parameters
	SharedBytes int                   // shared memory per CTA
}

// Threads returns the total number of threads launched.
func (lc LaunchConfig) Threads() int { return lc.Grid.Count() * lc.Block.Count() }

// Validate checks structural constraints of the launch.
func (lc LaunchConfig) Validate(maxThreadsPerCTA int) error {
	if lc.Grid.X <= 0 || lc.Grid.Y <= 0 {
		return fmt.Errorf("kernel: grid dims must be positive, got %dx%d", lc.Grid.X, lc.Grid.Y)
	}
	if lc.Block.X <= 0 || lc.Block.Y <= 0 {
		return fmt.Errorf("kernel: block dims must be positive, got %dx%d", lc.Block.X, lc.Block.Y)
	}
	if n := lc.Block.Count(); n > maxThreadsPerCTA {
		return fmt.Errorf("kernel: %d threads per CTA exceeds limit %d", n, maxThreadsPerCTA)
	}
	return nil
}

// Memory is the flat global device memory, addressed by 32-bit byte
// addresses. Storage is paged so sparse address usage stays cheap.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	next  uint32 // bump allocator cursor
}

const pageSize = 1 << 16

// NewMemory returns an empty device memory. Address 0 is reserved (the bump
// allocator starts at 256) so that a zero pointer is distinguishable.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte), next: 256}
}

// AddrSpaceError is the typed panic value raised by Memory allocation or
// bulk access beyond the 32-bit device address space. Address arithmetic
// used to wrap around silently, corrupting low memory; exhaustion is a host
// programming error (like indexing past a slice), so it panics rather than
// threading an error through every workload builder.
type AddrSpaceError struct {
	Op    string // "alloc", "read", or "write"
	Base  uint32 // allocation cursor or access base address
	Bytes int64  // requested size in bytes
}

func (e *AddrSpaceError) Error() string {
	return fmt.Sprintf("kernel: %s of %d bytes at %#x exceeds the 32-bit device address space",
		e.Op, e.Bytes, e.Base)
}

// Alloc reserves n bytes and returns the base address, 256-byte aligned. It
// panics with a *AddrSpaceError when the request does not fit in the
// remaining 32-bit address space.
func (m *Memory) Alloc(n int) uint32 {
	const align = 256
	base := (m.next + align - 1) &^ (align - 1)
	// base < m.next catches the alignment step itself wrapping around.
	if n < 0 || base < m.next || uint64(base)+uint64(n) > 1<<32 {
		panic(&AddrSpaceError{Op: "alloc", Base: m.next, Bytes: int64(n)})
	}
	m.next = base + uint32(n)
	return base
}

// checkRange panics with a *AddrSpaceError when an n-word access at base
// would run past the end of the 32-bit address space (and previously wrapped
// around to low memory).
func checkRange(op string, base uint32, n int) {
	if n < 0 || uint64(base)+4*uint64(n) > 1<<32 {
		panic(&AddrSpaceError{Op: op, Base: base, Bytes: 4 * int64(n)})
	}
}

func (m *Memory) page(addr uint32) *[pageSize]byte {
	id := addr / pageSize
	p := m.pages[id]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[id] = p
	}
	return p
}

// readPage returns the page containing addr without allocating, or nil when
// the page has never been written (its bytes are all zero). Loads must use
// this path: it keeps reads free of map mutation, so any number of SMs may
// load concurrently while stores are deferred to a serial commit phase.
func (m *Memory) readPage(addr uint32) *[pageSize]byte {
	return m.pages[addr/pageSize]
}

// Load32 reads the 4-byte little-endian word at addr.
func (m *Memory) Load32(addr uint32) uint32 {
	off := addr % pageSize
	if off <= pageSize-4 {
		p := m.readPage(addr)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.load8(addr+i)) << (8 * i)
	}
	return v
}

// Store32 writes the 4-byte little-endian word v at addr.
func (m *Memory) Store32(addr uint32, v uint32) {
	off := addr % pageSize
	if off <= pageSize-4 {
		p := m.page(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.store8(addr+i, byte(v>>(8*i)))
	}
}

func (m *Memory) load8(addr uint32) byte {
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	return p[addr%pageSize]
}
func (m *Memory) store8(addr uint32, b byte) { m.page(addr)[addr%pageSize] = b }

// MemPage is one page of a Memory snapshot: the page id (byte address /
// pageSize) and its contents with trailing zero bytes trimmed.
type MemPage struct {
	ID   uint32
	Data []byte
}

// Snapshot captures the memory's full observable state: the bump-allocator
// cursor and every page holding a non-zero byte, in ascending page-id order
// with trailing zeros trimmed. Restoring it via NewMemoryFromSnapshot yields
// a Memory whose every Load32 returns the same value and whose next Alloc
// lands at the same address — absent pages and trimmed tails read as zero,
// which is exactly how the paged storage treats them. The page data is
// copied, so the snapshot stays valid while the source memory keeps
// mutating.
func (m *Memory) Snapshot() (next uint32, pages []MemPage) {
	ids := make([]uint32, 0, len(m.pages))
	for id := range m.pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := m.pages[id]
		n := pageSize
		for n > 0 && p[n-1] == 0 {
			n--
		}
		if n == 0 {
			continue
		}
		data := make([]byte, n)
		copy(data, p[:n])
		pages = append(pages, MemPage{ID: id, Data: data})
	}
	return m.next, pages
}

// NewMemoryFromSnapshot materialises a fresh Memory from a Snapshot. Page
// data longer than a page is truncated (a well-formed snapshot never
// produces one), so a hostile snapshot cannot write out of bounds.
func NewMemoryFromSnapshot(next uint32, pages []MemPage) *Memory {
	m := NewMemory()
	m.next = next
	for _, pg := range pages {
		p := new([pageSize]byte)
		copy(p[:], pg.Data)
		m.pages[pg.ID] = p
	}
	return m
}

// StoreBuffer defers an SM's global-memory stores until the chip loop
// commits the SM: its warps append their stores here instead of writing
// Memory directly, and the commit flushes the buffers serially in ascending
// SM-id order. All loads of a step therefore observe memory as of the last
// commit, independent of worker scheduling, which is what makes the
// parallel schedules deterministic for any worker count.
type StoreBuffer struct {
	ops []storeOp
	// overlay, when enabled, tracks the latest buffered value per address so
	// loads can read through the buffer. The relaxed epoch mode needs it:
	// stores stay buffered for up to a whole epoch there, and a warp reading
	// back its own SM's recent global store must see the value a per-cycle
	// simulation would have made visible within a cycle. The per-cycle
	// schedules leave the overlay disabled — their buffers flush every
	// cycle, so loads reading memory as of the previous commit is already
	// the contract.
	overlay map[uint32]uint32
}

type storeOp struct {
	addr, val uint32
}

// EnableOverlay switches the buffer into read-through mode (see overlay).
func (b *StoreBuffer) EnableOverlay() {
	b.overlay = make(map[uint32]uint32)
}

// Store32 records a deferred 4-byte store.
func (b *StoreBuffer) Store32(addr, val uint32) {
	b.ops = append(b.ops, storeOp{addr, val})
	if b.overlay != nil {
		b.overlay[addr] = val
	}
}

// Len returns the number of buffered stores.
func (b *StoreBuffer) Len() int { return len(b.ops) }

// ReadThrough reports whether loads must consult the buffer before global
// memory: the overlay is enabled and at least one store is pending. It is
// nil-safe so the warp execution hot path can branch on it once per
// instruction.
func (b *StoreBuffer) ReadThrough() bool {
	return b != nil && len(b.overlay) > 0
}

// Load32 returns the latest buffered value for addr, if any. Valid only
// with the overlay enabled.
func (b *StoreBuffer) Load32(addr uint32) (uint32, bool) {
	v, ok := b.overlay[addr]
	return v, ok
}

// Flush applies the buffered stores to m in insertion order and empties the
// buffer. Flushed values are visible in m itself, so the overlay empties
// too.
func (b *StoreBuffer) Flush(m *Memory) {
	for _, op := range b.ops {
		m.Store32(op.addr, op.val)
	}
	b.ops = b.ops[:0]
	if len(b.overlay) > 0 {
		clear(b.overlay)
	}
}

// WriteU32 stores the slice of words starting at base. It panics with a
// *AddrSpaceError when the range exceeds the address space.
func (m *Memory) WriteU32(base uint32, vals []uint32) {
	checkRange("write", base, len(vals))
	for i, v := range vals {
		m.Store32(base+uint32(i)*4, v)
	}
}

// ReadU32 loads n words starting at base. It panics with a *AddrSpaceError
// when the range exceeds the address space.
func (m *Memory) ReadU32(base uint32, n int) []uint32 {
	checkRange("read", base, n)
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.Load32(base + uint32(i)*4)
	}
	return out
}

// WriteF32 stores float32 values starting at base. It panics with a
// *AddrSpaceError when the range exceeds the address space.
func (m *Memory) WriteF32(base uint32, vals []float32) {
	checkRange("write", base, len(vals))
	for i, v := range vals {
		m.Store32(base+uint32(i)*4, math.Float32bits(v))
	}
}

// ReadF32 loads n float32 values starting at base. It panics with a
// *AddrSpaceError when the range exceeds the address space.
func (m *Memory) ReadF32(base uint32, n int) []float32 {
	checkRange("read", base, n)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(m.Load32(base + uint32(i)*4))
	}
	return out
}

// AllocU32 allocates and initialises a word buffer, returning its base.
func (m *Memory) AllocU32(vals []uint32) uint32 {
	base := m.Alloc(len(vals) * 4)
	m.WriteU32(base, vals)
	return base
}

// AllocF32 allocates and initialises a float buffer, returning its base.
func (m *Memory) AllocF32(vals []float32) uint32 {
	base := m.Alloc(len(vals) * 4)
	m.WriteF32(base, vals)
	return base
}
