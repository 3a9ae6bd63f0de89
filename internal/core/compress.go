// Package core implements the paper's primary contribution: the byte-wise
// register value compression technique (§3) and the G-Scalar generalized
// scalar execution architecture built on top of it (§4).
//
// The compression scheme compares all 4-byte values of a vector register
// byte by byte, most-significant byte first. If the first n MSBs are
// identical across lanes, those n bytes become the base value (taken from
// op[0]) stored in the Base Value Register (BVR), the remaining bytes are
// the per-lane deltas kept in the SRAM byte-plane arrays, and the encoding
// bits enc[3:0] (here: the count of equal MSBs, 0..4) are stored in the
// Encoding Bit Register (EBR). Registers written by divergent instructions
// are not compressed; instead their EBR records whether the *active* lanes
// were uniform and their BVR stores the writing instruction's active mask,
// enabling scalar execution of subsequent divergent instructions (§4.2).
package core

import (
	"math/bits"

	"gscalar/internal/warp"
)

// GroupSize is the value-checking granularity in threads. The paper checks
// 16-thread halves of a 32-thread warp (§3.2, §4.3) and keeps the same
// 16-thread granularity for the warp-size-64 sweep (Figure 10).
const GroupSize = 16

// WordBits and WordBytes describe one register element.
const (
	WordBytes = 4
	WordBits  = 32
)

// Groups returns the number of GroupSize-lane groups of a warp of the given
// width (at least 1).
func Groups(width int) int {
	g := (width + GroupSize - 1) / GroupSize
	if g == 0 {
		g = 1
	}
	return g
}

// SameMSBBytes returns how many most-significant bytes are identical across
// the lanes of vec selected by mask (0..4). A mask with zero or one active
// lane yields 4 (a single value is trivially uniform). This models the
// comparison logic of Figure 3(2) with the broadcast adaptation of Figure
// 7(a): inactive lanes receive a value from an active lane, so they never
// break the comparison chain.
func SameMSBBytes(vec []uint32, mask warp.Mask) uint8 {
	_, diff := maskDiff(vec, mask)
	return sameBytes(diff)
}

// maskDiff returns the first lane of vec selected by mask (0 when none is)
// and the OR of its XOR with every selected lane: one pass yields both a
// group's base value and its difference word.
func maskDiff(vec []uint32, mask warp.Mask) (base, diff uint32) {
	m := mask
	if len(vec) < 64 {
		m &= 1<<uint(len(vec)) - 1
	}
	if m == 0 {
		return 0, 0
	}
	base = vec[bits.TrailingZeros64(m)]
	for m &= m - 1; m != 0; m &= m - 1 {
		diff |= base ^ vec[bits.TrailingZeros64(m)]
	}
	return base, diff
}

// sameBytes returns the number of identical MSBs a difference word leaves:
// its whole leading-zero bytes, 4 when it is zero.
func sameBytes(diff uint32) uint8 { return uint8(bits.LeadingZeros32(diff) >> 3) }

// IsScalar reports whether all lanes of vec selected by mask hold the same
// value.
func IsScalar(vec []uint32, mask warp.Mask) bool { return SameMSBBytes(vec, mask) == 4 }

// EncBits renders the same-MSB count as the paper's enc[3:0] pattern
// (0 -> 0b0000, 1 -> 0b1000, 2 -> 0b1100, 3 -> 0b1110, 4 -> 0b1111).
func EncBits(same uint8) uint8 {
	return [5]uint8{0b0000, 0b1000, 0b1100, 0b1110, 0b1111}[same]
}

// BaseValue returns the base value of a compressed register: the value of
// the first active lane (the paper always uses op[0] of the group for
// simplicity; for divergently-written registers the first *active* lane,
// since that is the lane the broadcast network sources).
func BaseValue(vec []uint32, mask warp.Mask) uint32 {
	m := mask
	if len(vec) < 64 {
		m &= 1<<uint(len(vec)) - 1
	}
	if m == 0 {
		return 0
	}
	return vec[bits.TrailingZeros64(m)]
}

// Compressed is the stored form of one compressed lane group, used by the
// codec round-trip (tests and the compression-ratio accounting).
type Compressed struct {
	Same   uint8    // number of identical MSBs (0..4)
	Base   uint32   // base value (the Same MSBs are significant)
	Deltas [][]byte // Deltas[i] = the (4-Same) low bytes of lane i, LSB first
	Lanes  int
}

// Compress encodes the lanes of vec selected by mask. Inactive lanes are
// recorded with zero deltas (hardware never reads them back).
func Compress(vec []uint32, mask warp.Mask) Compressed {
	same := SameMSBBytes(vec, mask)
	c := Compressed{
		Same:  same,
		Base:  BaseValue(vec, mask),
		Lanes: len(vec),
	}
	nd := int(WordBytes - same)
	c.Deltas = make([][]byte, len(vec))
	for lane := range vec {
		d := make([]byte, nd)
		if mask&(1<<lane) != 0 {
			for b := 0; b < nd; b++ {
				d[b] = byte(vec[lane] >> (8 * b))
			}
		}
		c.Deltas[lane] = d
	}
	return c
}

// Decompress reconstructs the lane values selected by mask. It is the model
// of the decompression logic in Figure 5: delta bytes come from the SRAM
// arrays, the remaining MSBs from the BVR.
func (c Compressed) Decompress(mask warp.Mask) []uint32 {
	out := make([]uint32, c.Lanes)
	nd := WordBytes - int(c.Same)
	baseMask := ^uint32(0)
	if nd < 4 {
		baseMask <<= uint(8 * nd)
	} else {
		baseMask = 0
	}
	for lane := 0; lane < c.Lanes; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		v := c.Base & baseMask
		for b := 0; b < nd; b++ {
			v |= uint32(c.Deltas[lane][b]) << (8 * b)
		}
		out[lane] = v
	}
	return out
}

// StoredBits returns the storage footprint of the compressed register in
// bits: the delta byte-planes that remain in SRAM plus the BVR (32b) and
// EBR (4b) entry. This is the numerator of the paper's compression-ratio
// metric (ours: 2.17 average).
func (c Compressed) StoredBits() int {
	return (WordBytes-int(c.Same))*8*c.Lanes + 32 + 4
}
