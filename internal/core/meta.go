package core

import (
	"gscalar/internal/warp"
)

// Features selects which of the paper's mechanisms are active on top of
// byte-wise register value compression (§3), which every WarpRegs models.
// The architecture presets in the public package map onto these.
type Features struct {
	HalfCompression bool // per-16-lane-group compression (§3.2 end, §4.3)
	ScalarALU       bool // scalar execution of non-divergent ALU instructions
	ScalarSFU       bool // … of special-function instructions (§4.1)
	ScalarMem       bool // … of memory instructions (§5.2)
	HalfScalar      bool // half-warp scalar execution (§4.3)
	DivergentScalar bool // scalar execution of divergent instructions (§4.2)
}

// GScalarFeatures returns the full G-Scalar feature set.
func GScalarFeatures() Features {
	return Features{
		HalfCompression: true, HalfScalar: true, DivergentScalar: true,
		ScalarALU: true, ScalarSFU: true, ScalarMem: true,
	}
}

// GScalarNoDivFeatures returns G-Scalar without divergent and half-warp
// scalar execution (Figure 11's "G-Scalar w/o divergent" bar).
func GScalarNoDivFeatures() Features {
	return Features{HalfCompression: true, ScalarALU: true, ScalarSFU: true, ScalarMem: true}
}

// RegMeta is the compression metadata of one vector register: the encoding
// bit register (EBR: enc plus the D and FS flags) and base value register
// (BVR) contents, modelled per 16-lane group.
type RegMeta struct {
	// D is the "divergent" flag (§3.3): set when the register was last
	// written by a divergent instruction, in which case the register is
	// stored uncompressed, Enc describes only the active lanes, and the
	// BVR holds the writing instruction's active mask instead of a base.
	D bool
	// DMask is the active mask stored in the BVR when D is set.
	DMask warp.Mask
	// Enc is the warp-level count of identical MSBs (0..4). When D is set
	// it was computed over the active lanes via the broadcast network.
	Enc uint8
	// Base is the warp-level base value (valid when !D).
	Base uint32
	// GEnc/GBase are the per-group encoding and base of the warp's first
	// Groups() groups (valid when !D and half-compression is enabled; they
	// power half-warp scalar execution).
	GEnc  [maxGroups]uint8
	GBase [maxGroups]uint32
	// FS ("full scalar", Figure 7(c)) indicates all groups hold the same
	// scalar: equivalent to Enc == 4.
	FS bool
}

// maxGroups is the group count of a 64-lane warp, the widest a 64-bit lane
// mask allows.
const maxGroups = 64 / GroupSize

// PredMeta tracks uniformity of a predicate register, mirroring the
// register mechanism: a predicate written by an instruction whose sources
// were scalar w.r.t. mask M is uniform w.r.t. M.
type PredMeta struct {
	Uniform bool
	Mask    warp.Mask // the active mask under which uniformity holds
}

// WarpRegs is the per-warp metadata file: one RegMeta per architectural
// vector register plus predicate uniformity bits. It corresponds to the
// 64×38-bit array per bank the paper synthesises (§5.1).
type WarpRegs struct {
	Width  int
	Live   warp.Mask // lanes populated at launch
	groups int
	regs   []RegMeta
	preds  []PredMeta
}

// NewWarpRegs allocates metadata for a warp of the given width, at most 64,
// whose populated lanes, all below width, are live. All registers start
// uncompressed (enc = 0).
func NewWarpRegs(numRegs, numPreds, width int, live warp.Mask) *WarpRegs {
	return &WarpRegs{
		Width:  width,
		Live:   live,
		groups: Groups(width),
		regs:   make([]RegMeta, numRegs),
		preds:  make([]PredMeta, numPreds),
	}
}

// Meta returns the metadata of register r (read-only use).
func (wr *WarpRegs) Meta(r int) *RegMeta { return &wr.regs[r] }

// Pred returns the uniformity metadata of predicate p.
func (wr *WarpRegs) Pred(p int) PredMeta { return wr.preds[p] }

// Groups returns the number of 16-lane groups per register.
func (wr *WarpRegs) Groups() int { return wr.groups }

// Writeback describes what one register writeback did to the register file,
// for the timing and energy models.
type Writeback struct {
	Divergent bool
	Enc       uint8 // warp-level enc after the write (broadcast enc when divergent)
	// ArraysWritten is the number of 128-bit SRAM arrays activated for the
	// write in the byte-plane-reordered register file. The small BVR/EBR
	// array is written every time: enc bits are always generated.
	ArraysWritten int
	// CompressedBits / OriginalBits feed the compression-ratio statistic.
	CompressedBits int
	OriginalBits   int
}

// OnWrite updates register metadata for a write of vec under active, and
// returns the writeback cost. live distinguishes divergent writes
// (active != live) from full writes. The scalarExec flag marks writes
// performed by a scalar execution (the result is written to the BVR only,
// §4.1) — it may only be set when the write is non-divergent and uniform.
func (wr *WarpRegs) OnWrite(reg int, vec []uint32, active warp.Mask, f Features, scalarExec bool) Writeback {
	m := &wr.regs[reg]
	wb := Writeback{OriginalBits: wr.Width * WordBits}

	if active != wr.Live {
		// Divergent write (§3.3): never compressed; all arrays activated
		// (each byte of a 4-byte value is spread across the byte-plane
		// arrays). Encoding bits are still generated over the active lanes
		// via the broadcast network; the BVR stores the active mask.
		same := SameMSBBytes(vec, active)
		m.D = true
		m.DMask = active
		m.Enc = same
		m.FS = false
		m.GEnc = [maxGroups]uint8{}
		wb.Divergent = true
		wb.Enc = same
		wb.ArraysWritten = totalArrays(wr.Width)
		wb.CompressedBits = wb.OriginalBits
		return wb
	}

	// Non-divergent write: compress.
	m.D = false
	m.DMask = 0
	m.Base = BaseValue(vec, wr.Live)
	deltas := 0 // delta byte-planes stored, in array units
	if f.HalfCompression {
		// One pass per group. The warp's difference word is the groups'
		// OR'd with each group base XOR the warp base: a lane's XOR with
		// the warp base is its XOR with its group base XOR that base's
		// with the warp base, and each group base is one of the lanes.
		live := wr.Live
		if len(vec) < 64 {
			live &= 1<<uint(len(vec)) - 1
		}
		var diff uint32
		for g := 0; g < wr.groups; g++ {
			gm := live & (warp.Mask(1<<GroupSize-1) << (g * GroupSize))
			base, d := maskDiff(vec, gm)
			m.GEnc[g], m.GBase[g] = sameBytes(d), base
			deltas += WordBytes - int(m.GEnc[g])
			if gm != 0 {
				diff |= d | (base ^ m.Base)
			}
		}
		m.Enc = sameBytes(diff)
	} else {
		m.Enc = SameMSBBytes(vec, wr.Live)
		for g := 0; g < wr.groups; g++ {
			m.GEnc[g] = m.Enc
			m.GBase[g] = m.Base
		}
		deltas = (WordBytes - int(m.Enc)) * wr.groups
	}
	m.FS = m.Enc == 4

	wb.Enc = m.Enc
	if scalarExec {
		// Scalar execution writes its single result to the BVR and sets
		// enc=1111; no SRAM array is touched (§4.1).
		wb.ArraysWritten = 0
	} else {
		wb.ArraysWritten = deltas
	}
	wb.CompressedBits = deltas*GroupSize*8 + wr.groups*38
	return wb
}

// OnPredWrite updates predicate uniformity: uniform reports whether the
// writing instruction's sources were all scalar w.r.t. its active mask.
func (wr *WarpRegs) OnPredWrite(p int, active warp.Mask, uniform bool) {
	wr.preds[p] = PredMeta{Uniform: uniform, Mask: active}
}

// ReadCost describes the register-file cost of reading one source register.
type ReadCost struct {
	// ArraysRead is the number of 128-bit SRAM arrays activated. The small
	// BVR/EBR array is read every time: enc bits gate array activation.
	ArraysRead int
	// CrossbarBytes is the number of bytes sent through the crossbar
	// (compressed reads skip the base bytes, §3.2).
	CrossbarBytes int
	// Decompress reports whether the decompression logic is exercised.
	Decompress bool
	// Class is the access class for the Figure 8 histogram.
	Class AccessClass
}

// AccessClass classifies an RF read for Figure 8.
type AccessClass uint8

// Access classes, in Figure 8's legend order.
const (
	AccessScalar    AccessClass = iota // all 32 operands identical
	Access3Byte                        // first 3 MSBs identical
	Access2Byte                        // first 2 MSBs identical
	Access1Byte                        // first MSB identical
	AccessNone                         // no common MSB
	AccessDivergent                    // accessed by a divergent instruction
	NumAccessClasses
)

// String returns the Figure 8 legend label.
func (c AccessClass) String() string {
	switch c {
	case AccessScalar:
		return "scalar"
	case Access3Byte:
		return "3-byte"
	case Access2Byte:
		return "2-byte"
	case Access1Byte:
		return "1-byte"
	case AccessNone:
		return "none"
	case AccessDivergent:
		return "divergent"
	}
	return "?"
}

func classOfEnc(enc uint8) AccessClass {
	switch enc {
	case 4:
		return AccessScalar
	case 3:
		return Access3Byte
	case 2:
		return Access2Byte
	case 1:
		return Access1Byte
	}
	return AccessNone
}

// OnRead returns the cost of reading register r for an instruction
// executing under active. divergentReader marks reads by divergent
// instructions (which always retrieve the full register, §4.2, and are
// reported in Figure 8's "divergent" class).
func (wr *WarpRegs) OnRead(reg int, active warp.Mask, f Features, divergentReader bool) ReadCost {
	m := &wr.regs[reg]
	full := totalArrays(wr.Width)

	var rc ReadCost
	switch {
	case divergentReader:
		rc.Class = AccessDivergent
	case m.D:
		// Registers written divergently are stored uncompressed; a
		// non-divergent read sees a non-uniform register.
		rc.Class = AccessNone
	default:
		rc.Class = classOfEnc(m.Enc)
	}

	if m.D {
		// Uncompressed storage: all arrays.
		rc.ArraysRead = full
		rc.CrossbarBytes = wr.Width * WordBytes
		return rc
	}

	// Compressed storage: only delta byte-plane arrays are activated, and
	// only delta bytes traverse the crossbar; base bytes come from the BVR.
	deltas := 0
	if f.HalfCompression {
		for g := 0; g < wr.groups; g++ {
			deltas += WordBytes - int(m.GEnc[g])
		}
	} else {
		deltas = (WordBytes - int(m.Enc)) * wr.groups
	}
	rc.ArraysRead = deltas
	rc.CrossbarBytes = deltas * GroupSize
	rc.Decompress = deltas < full
	return rc
}

// NeedsDecompressMove reports whether a divergent write to reg must be
// preceded by the special decompressing move instruction (§3.3): the
// register is currently stored compressed, so a partial per-lane update
// cannot be applied in place.
func (wr *WarpRegs) NeedsDecompressMove(reg int, f Features) bool {
	m := &wr.regs[reg]
	if m.D {
		return false // already stored uncompressed
	}
	if f.HalfCompression {
		for g := 0; g < wr.groups; g++ {
			if m.GEnc[g] > 0 {
				return true
			}
		}
		return false
	}
	return m.Enc > 0
}

// DecompressInPlace models the effect of the special move: the register is
// rewritten uncompressed (enc = 0, D = 0).
func (wr *WarpRegs) DecompressInPlace(reg int) {
	m := &wr.regs[reg]
	m.D = false
	m.DMask = 0
	m.Enc = 0
	m.FS = false
	m.GEnc = [maxGroups]uint8{}
}

// totalArrays returns the number of 128-bit arrays holding one vector
// register: 4 byte-planes per 16-lane group (8 arrays for a 32-wide warp,
// matching the paper's 8×128-bit bank).
func totalArrays(width int) int { return Groups(width) * WordBytes }
