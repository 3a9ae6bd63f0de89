package core

import (
	"math/rand"
	"testing"

	"gscalar/internal/warp"
)

func newWR() *WarpRegs { return NewWarpRegs(16, 8, 32, warp.FullMask(32)) }

func uniformVec(v uint32) []uint32 {
	vec := make([]uint32, 32)
	for i := range vec {
		vec[i] = v
	}
	return vec
}

func rampVec(base uint32) []uint32 {
	vec := make([]uint32, 32)
	for i := range vec {
		vec[i] = base + uint32(i)
	}
	return vec
}

func gsFeatures() Features { return GScalarFeatures() }

func TestOnWriteScalar(t *testing.T) {
	wr := newWR()
	wb := wr.OnWrite(1, uniformVec(0xABCD), warp.FullMask(32), gsFeatures(), false)
	if wb.Divergent || wb.Enc != 4 || wb.ArraysWritten != 0 {
		t.Fatalf("wb = %+v", wb)
	}
	m := wr.Meta(1)
	if m.D || m.Enc != 4 || !m.FS || m.Base != 0xABCD {
		t.Fatalf("meta = %+v", m)
	}
	// Compressed size: 2 groups × 38 metadata bits.
	if wb.CompressedBits != 76 {
		t.Errorf("compressed bits = %d, want 76", wb.CompressedBits)
	}
}

func TestOnWrite3Byte(t *testing.T) {
	wr := newWR()
	wb := wr.OnWrite(2, rampVec(0xC0403900), warp.FullMask(32), gsFeatures(), false)
	if wb.Enc != 3 {
		t.Fatalf("enc = %d, want 3", wb.Enc)
	}
	// One delta byte-plane per 16-lane group.
	if wb.ArraysWritten != 2 {
		t.Fatalf("arrays = %d, want 2", wb.ArraysWritten)
	}
}

func TestOnWriteDivergent(t *testing.T) {
	wr := newWR()
	mask := warp.Mask(0x0000FF00)
	wb := wr.OnWrite(3, uniformVec(7), mask, gsFeatures(), false)
	if !wb.Divergent {
		t.Fatal("not flagged divergent")
	}
	// Divergent writes are stored uncompressed: all 8 arrays activated.
	if wb.ArraysWritten != 8 {
		t.Fatalf("arrays = %d, want 8", wb.ArraysWritten)
	}
	m := wr.Meta(3)
	if !m.D || m.DMask != mask || m.Enc != 4 {
		t.Fatalf("meta = %+v", m)
	}
}

func TestOnReadCompressed(t *testing.T) {
	wr := newWR()
	f := gsFeatures()
	wr.OnWrite(1, uniformVec(9), warp.FullMask(32), f, false)
	rc := wr.OnRead(1, warp.FullMask(32), f, false)
	if rc.ArraysRead != 0 || rc.Class != AccessScalar {
		t.Fatalf("scalar read = %+v", rc)
	}
	if rc.CrossbarBytes != 0 {
		t.Errorf("scalar read moves %d bytes over crossbar", rc.CrossbarBytes)
	}

	wr.OnWrite(2, rampVec(0x11223300), warp.FullMask(32), f, false)
	rc = wr.OnRead(2, warp.FullMask(32), f, false)
	if rc.ArraysRead != 2 || rc.Class != Access3Byte || !rc.Decompress {
		t.Fatalf("3-byte read = %+v", rc)
	}
	if rc.CrossbarBytes != 32 {
		t.Errorf("3-byte read crossbar = %d, want 32", rc.CrossbarBytes)
	}
}

func TestOnReadDivergentRegister(t *testing.T) {
	wr := newWR()
	f := gsFeatures()
	wr.OnWrite(5, uniformVec(1), 0xFF, f, false) // divergent write
	rc := wr.OnRead(5, warp.FullMask(32), f, false)
	if rc.ArraysRead != 8 || rc.Class != AccessNone {
		t.Fatalf("read of divergently-written reg = %+v", rc)
	}
	// A divergent reader is classified in the "divergent" Figure 8 class.
	rc = wr.OnRead(5, 0xFF, f, true)
	if rc.Class != AccessDivergent {
		t.Fatalf("divergent reader class = %v", rc.Class)
	}
}

func TestHalfCompression(t *testing.T) {
	wr := newWR()
	f := gsFeatures()
	// First half scalar A, second half scalar B.
	vec := make([]uint32, 32)
	for i := 0; i < 16; i++ {
		vec[i] = 0x100
	}
	for i := 16; i < 32; i++ {
		vec[i] = 0x200
	}
	wb := wr.OnWrite(1, vec, warp.FullMask(32), f, false)
	m := wr.Meta(1)
	if m.GEnc[0] != 4 || m.GEnc[1] != 4 {
		t.Fatalf("group encs = %v", m.GEnc)
	}
	if m.GBase[0] != 0x100 || m.GBase[1] != 0x200 {
		t.Fatalf("group bases = %v", m.GBase)
	}
	if m.FS {
		t.Error("FS set for two distinct scalars")
	}
	if wb.ArraysWritten != 0 {
		t.Errorf("arrays = %d, want 0 (both halves scalar)", wb.ArraysWritten)
	}
	// Warp-level enc: the two values differ in byte 1 (0x100 vs 0x200).
	if m.Enc != 2 {
		t.Errorf("warp enc = %d, want 2", m.Enc)
	}

	// Without half-compression the same value costs delta planes.
	wr2 := newWR()
	f2 := f
	f2.HalfCompression = false
	wb2 := wr2.OnWrite(1, vec, warp.FullMask(32), f2, false)
	if wb2.ArraysWritten != 4 { // (4-2) deltas × 2 groups
		t.Errorf("no-half arrays = %d, want 4", wb2.ArraysWritten)
	}
}

func TestNeedsDecompressMove(t *testing.T) {
	wr := newWR()
	f := gsFeatures()
	if wr.NeedsDecompressMove(1, f) {
		t.Error("fresh register should not need a move")
	}
	wr.OnWrite(1, uniformVec(5), warp.FullMask(32), f, false)
	if !wr.NeedsDecompressMove(1, f) {
		t.Error("compressed register needs a move before a partial write")
	}
	wr.DecompressInPlace(1)
	if wr.NeedsDecompressMove(1, f) {
		t.Error("decompressed register should not need a move")
	}
	// Divergently-written registers are stored uncompressed already.
	wr.OnWrite(2, uniformVec(5), 0xFF, f, false)
	if wr.NeedsDecompressMove(2, f) {
		t.Error("divergently-written register should not need a move")
	}
	// Fully-random (incompressible) registers need no move either.
	vec := rampVec(0)
	for i := range vec {
		vec[i] = uint32(i) * 0x01010101
	}
	wr.OnWrite(3, vec, warp.FullMask(32), f, false)
	if wr.NeedsDecompressMove(3, f) {
		t.Error("uncompressed register should not need a move")
	}
}

func TestPredTracking(t *testing.T) {
	wr := newWR()
	wr.OnPredWrite(2, warp.FullMask(32), true)
	if pm := wr.Pred(2); !pm.Uniform || pm.Mask != warp.FullMask(32) {
		t.Fatalf("pred meta = %+v", pm)
	}
	wr.OnPredWrite(2, 0xFF, false)
	if pm := wr.Pred(2); pm.Uniform {
		t.Fatal("pred should be non-uniform")
	}
}

func TestTailWarpGroupMask(t *testing.T) {
	// A 20-lane warp: group 1 has only 4 live lanes; uniform values across
	// live lanes must still compress to scalar.
	wr := NewWarpRegs(8, 8, 32, warp.FullMask(20))
	wb := wr.OnWrite(1, uniformVec(3), warp.FullMask(20), gsFeatures(), false)
	if wb.Enc != 4 || wb.ArraysWritten != 0 {
		t.Fatalf("tail-warp scalar write = %+v", wb)
	}
}

// threePassEncode is the definition OnWrite's fused non-divergent encoding
// must match: the warp's enc and base over the live lanes, then each
// group's over its live lanes, with each group mask built lane by lane.
func threePassEncode(vec []uint32, live warp.Mask, width int) (enc uint8, base uint32, genc []uint8, gbase []uint32) {
	enc, base = SameMSBBytes(vec, live), BaseValue(vec, live)
	for g := 0; g < Groups(width); g++ {
		var gm warp.Mask
		for lane := g * GroupSize; lane < (g+1)*GroupSize && lane < width; lane++ {
			gm |= 1 << lane
		}
		gm &= live
		if gm == 0 {
			genc, gbase = append(genc, 4), append(gbase, 0)
			continue
		}
		genc, gbase = append(genc, SameMSBBytes(vec, gm)), append(gbase, BaseValue(vec, gm))
	}
	return enc, base, genc, gbase
}

// TestOnWriteMatchesThreePass checks the fused encoding against the
// three-pass definition on random vectors whose lanes share a random number
// of MSBs within and across groups, under full, prefix (tail-warp) and
// scattered live masks, at every warp width the sweeps use.
func TestOnWriteMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vary := func() uint32 { // a random value differing in 0..4 low bytes
		return rng.Uint32() & uint32(uint64(1)<<(8*rng.Intn(5))-1)
	}
	for _, width := range []int{8, 16, 32, 48, 64} {
		full := warp.FullMask(width)
		for trial := 0; trial < 2000; trial++ {
			var live warp.Mask
			switch trial % 3 {
			case 0:
				live = full
			case 1:
				live = warp.FullMask(1 + rng.Intn(width))
			default:
				live = rng.Uint64() & full
			}
			vec := make([]uint32, width)
			base := rng.Uint32()
			for g := 0; g < Groups(width); g++ {
				gbase, lanes := base^vary(), vary
				if rng.Intn(2) == 0 {
					lanes = func() uint32 { return 0 } // a scalar group
				}
				for lane := g * GroupSize; lane < (g+1)*GroupSize && lane < width; lane++ {
					vec[lane] = gbase ^ lanes()
				}
			}
			wr := NewWarpRegs(1, 1, width, live)
			wb := wr.OnWrite(0, vec, live, gsFeatures(), false)
			enc, b, genc, gbase := threePassEncode(vec, live, width)
			m := wr.Meta(0)
			deltas := 0
			for g := range genc {
				deltas += WordBytes - int(genc[g])
				if m.GEnc[g] != genc[g] || m.GBase[g] != gbase[g] {
					t.Fatalf("width %d live %#x group %d: enc/base %d/%#x, want %d/%#x (vec %#x)",
						width, live, g, m.GEnc[g], m.GBase[g], genc[g], gbase[g], vec)
				}
			}
			if m.Enc != enc || m.Base != b || m.FS != (enc == 4) || m.D || wb.Enc != enc {
				t.Fatalf("width %d live %#x: enc/base/FS %d/%#x/%v, want %d/%#x (vec %#x)",
					width, live, m.Enc, m.Base, m.FS, enc, b, vec)
			}
			if wb.ArraysWritten != deltas || wb.CompressedBits != deltas*GroupSize*8+len(genc)*38 {
				t.Fatalf("width %d live %#x: writeback %+v, want %d delta arrays", width, live, wb, deltas)
			}
		}
	}
}
