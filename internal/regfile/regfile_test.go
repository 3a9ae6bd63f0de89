package regfile

import (
	"testing"

	"gscalar/internal/core"
	"gscalar/internal/power"
	"gscalar/internal/warp"
)

func TestPortArbitration(t *testing.T) {
	f := New(4)
	if !f.TryServe(0, PortMain) {
		t.Fatal("fresh main port denied")
	}
	if f.TryServe(0, PortMain) {
		t.Fatal("main port double-granted in one cycle")
	}
	// The BVR array of the same bank is an independent port (§4.1).
	if !f.TryServe(0, PortBVR) {
		t.Fatal("BVR port blocked by main port")
	}
	if !f.TryServe(1, PortMain) {
		t.Fatal("other bank blocked")
	}
	// The dedicated scalar bank serves one access per cycle SM-wide.
	if !f.TryServe(0, PortScalarBank) {
		t.Fatal("scalar bank denied")
	}
	if f.TryServe(3, PortScalarBank) {
		t.Fatal("scalar bank double-granted")
	}
	f.NewCycle()
	if !f.TryServe(0, PortMain) || !f.TryServe(0, PortScalarBank) {
		t.Fatal("ports not released at cycle boundary")
	}
}

func TestBankOf(t *testing.T) {
	if BankOf(3, 0, 16) != 3 {
		t.Error("simple mapping broken")
	}
	if BankOf(3, 5, 16) != 8 {
		t.Error("warp interleave broken")
	}
	if BankOf(15, 1, 16) != 0 {
		t.Error("wraparound broken")
	}
}

func TestReadAccessComposition(t *testing.T) {
	en := power.DefaultEnergies()

	// Scalar register: BVR-only access, no arrays, no crossbar traffic.
	wr := core.NewWarpRegs(8, 8, 32, warp.FullMask(32))
	vec := make([]uint32, 32)
	for i := range vec {
		vec[i] = 7
	}
	wr.OnWrite(1, vec, warp.FullMask(32), core.GScalarFeatures(), false)
	rc := wr.OnRead(1, warp.FullMask(32), core.GScalarFeatures(), false)
	a := ReadAccess(1, 0, 16, rc, en)
	if a.Port != PortBVR || a.ArrayPJ != 0 || a.XbarBytes != 0 || a.BVRPJ != en.RFBVRAccess {
		t.Fatalf("scalar access = %+v", a)
	}

	// 3-byte-similar register: one delta plane per 16-lane group.
	for i := range vec {
		vec[i] = 0xAABB0000 + uint32(i)
	}
	wr.OnWrite(2, vec, warp.FullMask(32), core.GScalarFeatures(), false)
	rc = wr.OnRead(2, warp.FullMask(32), core.GScalarFeatures(), false)
	a = ReadAccess(2, 0, 16, rc, en)
	if a.Port != PortMain || a.ArrayPJ != 2*en.RFArrayAccess || !a.Decompress {
		t.Fatalf("3-byte access = %+v", a)
	}

	// Baseline read: all 8 arrays, 128 bytes.
	b := BaselineReadAccess(2, 0, 16, 32, en)
	if b.ArrayPJ != 8*en.RFArrayAccess || b.XbarBytes != 128 {
		t.Fatalf("baseline access = %+v", b)
	}

	// BDI read: arrays scale with the compressed footprint.
	d := BDIReadAccess(2, 0, 16, 37, en)
	if d.ArrayPJ != 3*en.RFArrayAccess+en.BDICodecUse || d.XbarBytes != 37 {
		t.Fatalf("BDI access = %+v", d)
	}

	sb := ScalarBankAccess(en)
	if sb.Port != PortScalarBank || sb.ArrayPJ != en.RFScalarBankAccess {
		t.Fatalf("scalar-bank access = %+v", sb)
	}
}

// TestScalarReadsCheaperInvariant: for any register state, a compressed read
// must never cost more array energy than the baseline full read.
func TestScalarReadsCheaperInvariant(t *testing.T) {
	en := power.DefaultEnergies()
	wr := core.NewWarpRegs(8, 8, 32, warp.FullMask(32))
	patterns := [][]uint32{make([]uint32, 32), make([]uint32, 32), make([]uint32, 32)}
	for i := 0; i < 32; i++ {
		patterns[0][i] = 5
		patterns[1][i] = 0x1000 + uint32(i)
		patterns[2][i] = uint32(i) * 0x9E3779B9
	}
	base := BaselineReadAccess(1, 0, 16, 32, en)
	for pi, vec := range patterns {
		wr.OnWrite(1, vec, warp.FullMask(32), core.GScalarFeatures(), false)
		rc := wr.OnRead(1, warp.FullMask(32), core.GScalarFeatures(), false)
		a := ReadAccess(1, 0, 16, rc, en)
		if a.ArrayPJ > base.ArrayPJ {
			t.Errorf("pattern %d: compressed read (%v pJ) costs more than baseline (%v pJ)",
				pi, a.ArrayPJ, base.ArrayPJ)
		}
	}
}

func TestBaselineWriteArrays(t *testing.T) {
	full := warp.FullMask(32)
	// A full write touches all 8 arrays.
	if n := BaselineWriteArrays(full, full, 32); n != 8 {
		t.Fatalf("full arrays = %d, want 8", n)
	}
	// A partial write to lanes 0..3 touches one 4-lane array.
	if n := BaselineWriteArrays(0xF, full, 32); n != 1 {
		t.Fatalf("partial arrays = %d, want 1", n)
	}
	// Lanes 0 and 31 touch two arrays.
	if n := BaselineWriteArrays(1|1<<31, full, 32); n != 2 {
		t.Fatalf("spread arrays = %d, want 2", n)
	}
}
