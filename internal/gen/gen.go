// Package gen is the calibrated synthetic-kernel generator: it turns a
// dial vector (divergence fraction, Fig 8 register value-class mix, SFU
// share, memory intensity and coalescing, CTA occupancy) into a .gasm
// program plus deterministic input memory whose *measured* dynamic
// properties land on the request. It is the scenario-diversity counterpart
// to the 17 hand-written Table 2 kernels: where those reproduce specific
// benchmarks, gen sweeps the whole space the paper's figures are driven by.
//
// The emitted kernel is a fixed-shape loop of 32 iterations. A per-warp
// schedule word (one bit per iteration, baked in as an immediate) decides
// which iterations split the warp: a set bit routes the first `split` lanes
// through a taken arm while the rest fall through, so both arms execute
// under partial masks — the classic if/else divergence shape of Figure 1.
// Each arm carries the same list of "slots": ALU, SFU, and memory
// instructions whose operand registers are drawn from a bank of class
// registers engineered (from %laneid) to hold values with exactly 4, 3, 2,
// 1 or 0 shared most-significant bytes across the warp. A small solver
// picks the schedule-bit count, the slot composition, and the operand
// assignment so the committed-instruction shares and the RF read-class
// distribution match the dials, accounting for the loop's structural
// instructions and the forced reads (address registers) of the memory
// slots.
//
// Everything is a pure function of (Params, scale): same dials, same seed
// ⇒ byte-identical program text and memory image, so a gen workload has a
// stable content key and caches exactly like a builtin.
package gen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
)

// Fixed shape of the generated kernel. The solver's granularity (how
// finely a dial can be hit) is one slot out of ~armSlots+9 instructions
// per iteration, well inside the property-suite tolerances.
const (
	iters      = 32 // loop iterations = schedule bits
	armSlots   = 24 // instruction slots per branch arm
	fullCTAs   = 60 // CTA count at occ=1 (4 CTAs per SM x 15 SMs)
	ctaThreads = 256
	dataWords  = 1 << 16 // 256 KiB load-target buffer
)

// Params is the parsed dial vector. Zero value is NOT the default — use
// Defaults() or ParseDials.
type Params struct {
	Div  float64 // target divergent-instruction fraction (Fig 1)
	SFU  float64 // target SFU share of committed instructions
	Mem  float64 // target memory-instruction share
	Coal float64 // fraction of generated loads with coalesced addresses

	// Target RF read-class fractions (Fig 8). The remainder becomes
	// no-similarity and divergent reads.
	Scalar float64
	B3     float64
	B2     float64
	B1     float64

	Occ  float64 // CTA occupancy: fraction of the full 60-CTA grid
	Seed uint64  // PRNG seed for schedule, operand shuffle, scatter map
}

// Defaults returns the dial vector encoded by "gen:" with no dials set.
func Defaults() Params {
	return Params{
		Div: 0, SFU: 0.05, Mem: 0.1, Coal: 1,
		Scalar: 0.3, B3: 0.15, B2: 0.05, B1: 0.05,
		Occ: 1, Seed: 1,
	}
}

// Dial describes one generator parameter for the machine-readable schema
// (served by GET /api/v1/workloads so clients can build sweeps without
// hardcoding names or ranges).
type Dial struct {
	Name    string  `json:"name"`
	Type    string  `json:"type"` // "float" or "int"
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Default float64 `json:"default"`
	Desc    string  `json:"description"`
}

// Schema returns the dial table in canonical (name-sorted) order.
func Schema() []Dial {
	d := Defaults()
	return []Dial{
		{Name: "coal", Type: "float", Min: 0, Max: 1, Default: d.Coal,
			Desc: "fraction of generated loads using coalesced (unit-stride) addresses; the rest scatter across the data buffer"},
		{Name: "div", Type: "float", Min: 0, Max: 0.6, Default: d.Div,
			Desc: "target divergent-instruction fraction (Figure 1)"},
		{Name: "mem", Type: "float", Min: 0, Max: 0.45, Default: d.Mem,
			Desc: "target memory-instruction share (mem+sfu must stay <= 0.7)"},
		{Name: "occ", Type: "float", Min: 0.05, Max: 1, Default: d.Occ,
			Desc: "CTA occupancy: fraction of the full 60-CTA grid (256 threads per CTA)"},
		{Name: "r1", Type: "float", Min: 0, Max: 0.6, Default: d.B1,
			Desc: "target fraction of RF reads with 1 shared MSB (Figure 8)"},
		{Name: "r2", Type: "float", Min: 0, Max: 0.6, Default: d.B2,
			Desc: "target fraction of RF reads with 2 shared MSBs (Figure 8)"},
		{Name: "r3", Type: "float", Min: 0, Max: 0.6, Default: d.B3,
			Desc: "target fraction of RF reads with 3 shared MSBs (Figure 8)"},
		{Name: "rs", Type: "float", Min: 0, Max: 0.6, Default: d.Scalar,
			Desc: "target fraction of fully scalar RF reads (rs+r3+r2+r1 must stay <= 0.9)"},
		{Name: "seed", Type: "int", Min: 0, Max: math.MaxUint32, Default: float64(d.Seed),
			Desc: "PRNG seed for the divergence schedule, operand shuffle and scatter map"},
		{Name: "sfu", Type: "float", Min: 0, Max: 0.4, Default: d.SFU,
			Desc: "target special-function-unit share of committed instructions"},
	}
}

// DialError is the typed per-parameter parse/validation error. Dial names
// a schema entry (or a cross-dial constraint like "sfu+mem"), Value is the
// offending input.
type DialError struct {
	Dial   string
	Value  string
	Reason string
}

func (e *DialError) Error() string {
	return fmt.Sprintf("gen dial %s=%q: %s", e.Dial, e.Value, e.Reason)
}

func dialByName(name string) (Dial, bool) {
	for _, d := range Schema() {
		if d.Name == name {
			return d, true
		}
	}
	return Dial{}, false
}

// ParseDials parses the comma-separated dial list of a "gen:" spec (the
// part after the prefix; empty means all defaults). Unknown names,
// malformed values, duplicates, out-of-range values and cross-dial
// constraint violations all fail with a *DialError.
func ParseDials(s string) (Params, error) {
	p := Defaults()
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, val, ok := strings.Cut(part, "=")
		name, val = strings.TrimSpace(name), strings.TrimSpace(val)
		if !ok || name == "" || val == "" {
			return Params{}, &DialError{Dial: name, Value: part, Reason: "want name=value"}
		}
		d, known := dialByName(name)
		if !known {
			return Params{}, &DialError{Dial: name, Value: val, Reason: "unknown dial (see the generator schema)"}
		}
		if seen[name] {
			return Params{}, &DialError{Dial: name, Value: val, Reason: "duplicate dial"}
		}
		seen[name] = true
		if name == "seed" {
			u, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return Params{}, &DialError{Dial: name, Value: val, Reason: "not a 32-bit unsigned integer"}
			}
			p.Seed = u
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Params{}, &DialError{Dial: name, Value: val, Reason: "not a number"}
		}
		if !(f >= d.Min && f <= d.Max) { // NaN fails too
			return Params{}, &DialError{Dial: name, Value: val,
				Reason: fmt.Sprintf("out of range [%g, %g]", d.Min, d.Max)}
		}
		switch name {
		case "div":
			p.Div = f
		case "sfu":
			p.SFU = f
		case "mem":
			p.Mem = f
		case "coal":
			p.Coal = f
		case "rs":
			p.Scalar = f
		case "r3":
			p.B3 = f
		case "r2":
			p.B2 = f
		case "r1":
			p.B1 = f
		case "occ":
			p.Occ = f
		}
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// Validate checks per-dial ranges and the cross-dial feasibility
// constraints (the kernel template cannot fill more than ~70 % of its
// instruction slots with SFU+memory work, and the read-class mix must
// leave room for structural and divergent reads).
func (p Params) Validate() error {
	check := func(name string, v float64) *DialError {
		d, _ := dialByName(name)
		if !(v >= d.Min && v <= d.Max) {
			return &DialError{Dial: name, Value: strconv.FormatFloat(v, 'g', -1, 64),
				Reason: fmt.Sprintf("out of range [%g, %g]", d.Min, d.Max)}
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"div", p.Div}, {"sfu", p.SFU}, {"mem", p.Mem}, {"coal", p.Coal},
		{"rs", p.Scalar}, {"r3", p.B3}, {"r2", p.B2}, {"r1", p.B1}, {"occ", p.Occ},
	} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	if p.Seed > math.MaxUint32 {
		return &DialError{Dial: "seed", Value: strconv.FormatUint(p.Seed, 10),
			Reason: "out of range [0, 4294967295]"}
	}
	if s := p.SFU + p.Mem; s > 0.7 {
		return &DialError{Dial: "sfu+mem", Value: strconv.FormatFloat(s, 'g', -1, 64),
			Reason: "combined SFU+memory share above 0.7 exceeds the kernel template's slot budget"}
	}
	if s := p.Scalar + p.B3 + p.B2 + p.B1; s > 0.9 {
		return &DialError{Dial: "rs+r3+r2+r1", Value: strconv.FormatFloat(s, 'g', -1, 64),
			Reason: "read-class mix above 0.9 leaves no room for structural reads"}
	}
	return nil
}

// Canonical renders the dial list in canonical form: dials at their
// default are omitted, the rest appear name-sorted with shortest-round-trip
// number formatting. ParseDials(p.Canonical()) == p, and canonicalizing is
// idempotent — the "gen:"+Canonical() string is the workload's content key.
func (p Params) Canonical() string {
	d := Defaults()
	var parts []string
	add := func(name string, v, def float64) {
		if v != def {
			parts = append(parts, name+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("coal", p.Coal, d.Coal)
	add("div", p.Div, d.Div)
	add("mem", p.Mem, d.Mem)
	add("occ", p.Occ, d.Occ)
	add("r1", p.B1, d.B1)
	add("r2", p.B2, d.B2)
	add("r3", p.B3, d.B3)
	add("rs", p.Scalar, d.Scalar)
	if p.Seed != d.Seed {
		parts = append(parts, "seed="+strconv.FormatUint(p.Seed, 10))
	}
	add("sfu", p.SFU, d.SFU)
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// rng is the same xorshift PRNG the builtin workloads use for inputs —
// deterministic across Go versions and GOMAXPROCS.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*2685821657736338717 + 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// ---------------------------------------------------------------------------
// Calibration solver
// ---------------------------------------------------------------------------

type slotKind uint8

const (
	slotALU slotKind = iota
	slotSFU
	slotLoadCoal
	slotLoadScat
	slotStore
)

// slot is one generated arm instruction; a and b index the class-register
// bank for the freely assignable operand reads (-1 = unused).
type slot struct {
	kind slotKind
	op   string
	a, b int
}

// Class-register bank indices (order matches classRegs below).
const (
	clsScalar = iota
	clsB3
	clsB2
	clsB1
	clsNone
	numClasses
)

var classRegs = [numClasses]string{"r9", "r10", "r11", "r12", "r13"}

// Per-warp instruction accounting of the fixed template (kept in sync with
// render below; the gendet property suite holds the truth of these
// numbers against live telemetry):
//
//	prologue+epilogue: 20 instructions, 15 register reads
//	  (11 b3, 1 b2, 1 b1, 1 none, 1 scalar)
//	loop structure, per iteration: 8 instructions, 8 reads (7 scalar, 1 b3)
//	convergent iteration: 8 + armSlots instructions (the whole warp takes
//	  the branch to the main arm — a guarded bra with a full mask is not
//	  divergent); a divergent iteration adds the fall-through arm and its
//	  join bra (armSlots+1 instructions) and commits 2*armSlots+2
//	  instructions under partial masks (both arms, the split bra, the
//	  join bra). The loop-exit bra commits once per warp with an empty
//	  active mask, counting as one more divergent instruction.
const (
	proInsts       = 20
	proReads       = 15
	proReadsB3     = 11
	proReadsB2     = 1
	proReadsB1     = 1
	proReadsNone   = 1
	proReadsScalar = 1
	proMemInsts    = 2 // scatter-base ldg + epilogue stg
	iterInsts      = 8
	iterReadsScal  = 7
	iterReadsB3    = 1
)

// plan is the solved static shape of one generated kernel.
type plan struct {
	p        Params
	k        int    // divergent iterations
	schedule uint32 // one bit per iteration
	split    int    // lanes taking the taken arm when a bit is set
	slots    []slot

	// seeded class-register constants (low bits masked so the lane
	// pattern lands in the intended byte)
	constS, const3, const2, const1, const0 uint32
}

// solve turns the dial vector into a concrete kernel plan. Everything is
// closed-form: totals as a function of the divergent-iteration count k,
// then slot counts from the share targets, then operand classes from the
// read-mix targets with the structural/forced reads subtracted out.
func solve(p Params) plan {
	r := newRNG(p.Seed)
	pl := plan{p: p}

	// Divergent iterations: solve div = D(k)/T(k) with
	// T(k) = base + (armSlots+1)*k and D(k) = (2*armSlots+2)*k + 1
	// (see the accounting above).
	base := float64(proInsts + iters*(iterInsts+armSlots))
	dpi := float64(2*armSlots + 2)
	k := 0
	if p.Div > 0 {
		k = int(math.Round((p.Div*base - 1) / (dpi - float64(armSlots+1)*p.Div)))
		k = max(0, min(k, iters))
	}
	pl.k = k
	total := base + float64((armSlots+1)*k)
	armExecs := float64(iters + k)

	// Slot composition from the share targets.
	memSlots := int(math.Round((p.Mem*total - proMemInsts) / armExecs))
	memSlots = max(0, min(memSlots, armSlots))
	sfuSlots := int(math.Round(p.SFU * total / armExecs))
	sfuSlots = max(0, min(sfuSlots, armSlots-memSlots))
	aluSlots := armSlots - memSlots - sfuSlots
	stores := memSlots / 4
	loads := memSlots - stores
	coalLoads := int(math.Round(p.Coal * float64(loads)))
	scatLoads := loads - coalLoads

	// RF read-class assignment. Free read positions: 2 per ALU slot, 1
	// per SFU slot, 1 per store (the stored value); each executes
	// iters-k times with its true class (the 2k divergent arm executions
	// classify as divergent reads regardless of operand). Forced reads:
	// load/store address registers and the loop's structural reads.
	freePos := 2*aluSlots + sfuSlots + stores
	armReads := 2*aluSlots + sfuSlots + loads + 2*stores
	totalReads := float64(proReads+iters*(iterReadsScal+iterReadsB3)) + armExecs*float64(armReads)
	conv := float64(iters - k) // executions of a slot at its true class
	fixed := [numClasses]float64{
		clsScalar: float64(iters*iterReadsScal + proReadsScalar),
		clsB3:     float64(iters*iterReadsB3+proReadsB3) + conv*float64(coalLoads+stores),
		clsB2:     proReadsB2,
		clsB1:     float64(proReadsB1) + conv*float64(scatLoads),
		clsNone:   proReadsNone,
	}
	counts := [numClasses]int{}
	if conv > 0 {
		remaining := freePos
		for _, c := range []struct {
			cls    int
			target float64
		}{
			{clsScalar, p.Scalar}, {clsB3, p.B3}, {clsB2, p.B2}, {clsB1, p.B1},
		} {
			need := (c.target*totalReads - fixed[c.cls]) / conv
			n := max(0, min(int(math.Round(need)), remaining))
			counts[c.cls] = n
			remaining -= n
		}
		counts[clsNone] = remaining
	} else {
		counts[clsNone] = freePos
	}

	// Build the operand pool and the slot list, then shuffle both with
	// the seeded PRNG so the schedule interleaves units.
	pool := make([]int, 0, freePos)
	for cls, n := range counts {
		for i := 0; i < n; i++ {
			pool = append(pool, cls)
		}
	}
	for i := len(pool) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	take := func() int {
		if len(pool) == 0 {
			return clsNone
		}
		c := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return c
	}
	aluOps := []string{"iadd", "xor", "and", "or"}
	sfuOps := []string{"rcp", "rsqrt", "ex2", "lg2", "sin", "cos", "sqrt"}
	slots := make([]slot, 0, armSlots)
	for i := 0; i < aluSlots; i++ {
		slots = append(slots, slot{kind: slotALU, op: aluOps[i%len(aluOps)], a: take(), b: take()})
	}
	for i := 0; i < sfuSlots; i++ {
		slots = append(slots, slot{kind: slotSFU, op: sfuOps[i%len(sfuOps)], a: take(), b: -1})
	}
	for i := 0; i < stores; i++ {
		slots = append(slots, slot{kind: slotStore, op: "stg", a: take(), b: -1})
	}
	for i := 0; i < coalLoads; i++ {
		slots = append(slots, slot{kind: slotLoadCoal, op: "ldg", a: -1, b: -1})
	}
	for i := 0; i < scatLoads; i++ {
		slots = append(slots, slot{kind: slotLoadScat, op: "ldg", a: -1, b: -1})
	}
	for i := len(slots) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
	pl.slots = slots

	// Divergence schedule: k of 32 bits, seeded placement; split point
	// away from the warp edges so both sides keep multiple lanes.
	perm := make([]int, iters)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for _, bit := range perm[:k] {
		pl.schedule |= 1 << bit
	}
	pl.split = 8 + r.intn(17) // 8..24 of 32 lanes take the branch

	// Class-register constants: seeded, with the bytes the lane pattern
	// occupies forced clear so the shared-MSB count is exact.
	pl.constS = 0x40000000 | uint32(r.next())&0x00ffffff
	pl.const3 = 0x3f800000 | uint32(r.next())&0x007fff00
	pl.const2 = 0x3ea00000 | uint32(r.next())&0x000001ff
	pl.const1 = 0x3e000000 | uint32(r.next())&0x0001ffff
	pl.const0 = uint32(r.next()) & 0x01ffffff
	return pl
}

// ---------------------------------------------------------------------------
// Rendering and building
// ---------------------------------------------------------------------------

// Render emits the .gasm program for the dial vector. Pure and
// deterministic: equal Params yield byte-identical text.
func Render(p Params) string {
	return render(solve(p))
}

func render(pl plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// gen:%s\n", pl.p.Canonical())
	b.WriteString(".kernel gensyn\n")
	b.WriteString("	mov   r1, %tid.x\n")
	b.WriteString("	imad  r2, %ctaid.x, %ntid.x, r1   // gid\n")
	b.WriteString("	shl   r3, r2, 2\n")
	b.WriteString("	mov   r4, %laneid\n")
	b.WriteString("	iadd  r5, $0, r3                  // coalesced load base\n")
	b.WriteString("	iadd  r6, $1, r3\n")
	b.WriteString("	ldg   r7, [r6]                    // scattered load base (precomputed)\n")
	b.WriteString("	iadd  r8, $2, r3                  // store base\n")
	fmt.Fprintf(&b, "	mov   r9, 0x%08x              // class reg: scalar\n", pl.constS)
	fmt.Fprintf(&b, "	or    r10, r4, 0x%08x         // class reg: 3-byte\n", pl.const3)
	b.WriteString("	shl   r16, r4, 9\n")
	fmt.Fprintf(&b, "	or    r11, r16, 0x%08x        // class reg: 2-byte\n", pl.const2)
	b.WriteString("	shl   r16, r4, 17\n")
	fmt.Fprintf(&b, "	or    r12, r16, 0x%08x        // class reg: 1-byte\n", pl.const1)
	b.WriteString("	shl   r16, r4, 25\n")
	fmt.Fprintf(&b, "	or    r13, r16, 0x%08x        // class reg: no similarity\n", pl.const0)
	b.WriteString("	mov   r14, 0                      // iteration counter\n")
	fmt.Fprintf(&b, "	mov   r15, 0x%08x             // divergence schedule\n", pl.schedule)
	b.WriteString("LOOP:\n")
	b.WriteString("	shr   r17, r15, r14\n")
	b.WriteString("	and   r17, r17, 1\n")
	fmt.Fprintf(&b, "	imul  r18, r17, %d                // split point, 0 when convergent\n", pl.split)
	b.WriteString("	isetp.ge p0, r4, r18              // whole warp on convergent iterations\n")
	b.WriteString("	@p0 bra MAIN\n")
	renderArm(&b, pl.slots) // fall-through arm: divergent iterations only
	b.WriteString("	bra JOIN\n")
	b.WriteString("MAIN:\n")
	renderArm(&b, pl.slots)
	b.WriteString("JOIN:\n")
	b.WriteString("	iadd  r14, r14, 1\n")
	fmt.Fprintf(&b, "	isetp.lt p0, r14, %d\n", iters)
	b.WriteString("	@p0 bra LOOP\n")
	b.WriteString("	stg   [r8], r9\n")
	b.WriteString("	exit\n")
	return b.String()
}

// renderArm writes the slot list; destination registers rotate through
// r20..r27 to keep writeback hazards from serializing the arm.
func renderArm(b *strings.Builder, slots []slot) {
	for i, s := range slots {
		dst := fmt.Sprintf("r%d", 20+i%8)
		switch s.kind {
		case slotALU:
			fmt.Fprintf(b, "	%-5s %s, %s, %s\n", s.op, dst, classRegs[s.a], classRegs[s.b])
		case slotSFU:
			fmt.Fprintf(b, "	%-5s %s, %s\n", s.op, dst, classRegs[s.a])
		case slotLoadCoal:
			fmt.Fprintf(b, "	ldg   %s, [r5+%d]\n", dst, 4*i)
		case slotLoadScat:
			fmt.Fprintf(b, "	ldg   %s, [r7+%d]\n", dst, 4*i)
		case slotStore:
			fmt.Fprintf(b, "	stg   [r8], %s\n", classRegs[s.a])
		}
	}
}

// Build materialises the generated workload: assembled program, launch
// configuration and input memory. scale >= 1 multiplies the grid like it
// does for builtins. Same (Params, scale) ⇒ byte-identical program and
// memory snapshot.
func Build(p Params, scale int) (*kernel.Program, *kernel.LaunchConfig, *kernel.Memory, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, nil, err
	}
	if scale < 1 {
		scale = 1
	}
	pl := solve(p)
	prog, err := asm.Assemble(render(pl))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("gen: assembling synthetic kernel: %w", err)
	}

	ctas := max(1, int(math.Round(p.Occ*fullCTAs))) * scale
	threads := ctas * ctaThreads
	r := newRNG(p.Seed ^ 0xdeadbeefcafe)

	m := kernel.NewMemory()
	dataBase := m.Alloc(4 * dataWords)
	data := make([]uint32, dataWords)
	for i := range data {
		data[i] = uint32(r.next())
	}
	m.WriteU32(dataBase, data)

	// Scattered-load base addresses, one per thread. Constructed so every
	// warp's 32 addresses share exactly one MSB (Fig 8's 1-byte class):
	// the buffer is far below 16 MiB (byte 3 constant) and the fix-up
	// loop forces a byte-2 spread inside any pathological window.
	scat := make([]uint32, threads)
	lim := dataWords - 2*armSlots
	for i := range scat {
		scat[i] = dataBase + 4*uint32(r.intn(lim))
	}
	for w := 0; w+32 <= len(scat); w += 32 {
		win := scat[w : w+32]
		for try := 0; sharedMSBs(win) != 1 && try < 64; try++ {
			idx := (int(win[0]-dataBase)/4 + 0x4321) % lim
			win[0] = dataBase + 4*uint32(idx)
		}
	}
	scatBase := m.Alloc(4 * threads)
	m.WriteU32(scatBase, scat)
	outBase := m.Alloc(4 * threads)

	lc := &kernel.LaunchConfig{
		Grid:  kernel.Dim{X: ctas, Y: 1},
		Block: kernel.Dim{X: ctaThreads, Y: 1},
	}
	lc.Params[0] = dataBase
	lc.Params[1] = scatBase
	lc.Params[2] = outBase
	return prog, lc, m, nil
}

// sharedMSBs counts how many leading bytes all values share — the same
// classification core.SameMSBBytes applies at register writeback.
func sharedMSBs(vals []uint32) int {
	var diff uint32
	for _, v := range vals {
		diff |= v ^ vals[0]
	}
	switch {
	case diff == 0:
		return 4
	case diff <= 0xff:
		return 3
	case diff <= 0xffff:
		return 2
	case diff <= 0xffffff:
		return 1
	}
	return 0
}
