package power

import (
	"math"
	"strings"
	"testing"
)

func TestMeterAccumulation(t *testing.T) {
	var m Meter
	m.Add(CompExecALU, 100)
	m.AddN(CompExecALU, 3, 50)
	if got := m.Energy(CompExecALU); got != 250 {
		t.Fatalf("energy = %v", got)
	}
	m.Add(CompRFArray, 40)
	m.Add(CompRFCrossbar, 10)
	m.Add(CompRFBVR, 5)
	m.Add(CompCodec, 5)
	if got := m.TotalDynamic(); got != 310 {
		t.Fatalf("total dynamic = %v", got)
	}
}

func TestFinishPowerMath(t *testing.T) {
	var m Meter
	// 1e12 pJ = 1 J of dynamic energy over 1e9 cycles at 1 GHz = 1 s.
	m.Add(CompExecALU, 1e12)
	b := m.Finish(1e9, 1e9, 50)
	if math.Abs(b.Seconds-1) > 1e-12 {
		t.Fatalf("seconds = %v", b.Seconds)
	}
	if math.Abs(b.AvgPowerW-51) > 1e-9 {
		t.Fatalf("power = %v, want 51", b.AvgPowerW)
	}
	if math.Abs(b.PerComp[CompStatic]-50) > 1e-9 {
		t.Fatalf("static = %v", b.PerComp[CompStatic])
	}
	if math.Abs(b.Share(CompExecALU)-1.0/51) > 1e-9 {
		t.Fatalf("share = %v", b.Share(CompExecALU))
	}
}

// TestBreakdownRFDynamic pins the register-file aggregate of Figure 12:
// arrays, crossbar, BVR/EBR, scalar bank and codec, and nothing else.
func TestBreakdownRFDynamic(t *testing.T) {
	var m Meter
	// Over 1e9 cycles at 1 GHz, 1e12 pJ is 1 W.
	m.Add(CompRFArray, 40e12)
	m.Add(CompRFCrossbar, 10e12)
	m.Add(CompRFBVR, 5e12)
	m.Add(CompRFScalarBank, 2e12)
	m.Add(CompCodec, 3e12)
	m.Add(CompExecALU, 100e12)
	b := m.Finish(1e9, 1e9, 40)
	if got := b.RFDynamicW(); math.Abs(got-60) > 1e-9 {
		t.Fatalf("RF dynamic = %v W, want 60", got)
	}
	if got := b.RFShare(); math.Abs(got-60.0/200) > 1e-12 {
		t.Fatalf("RF share = %v, want 0.3", got)
	}
}

func TestBreakdownString(t *testing.T) {
	var m Meter
	m.Add(CompExecSFU, 5e11)
	b := m.Finish(1e9, 1e9, 10)
	s := b.String()
	if !strings.Contains(s, "exec_sfu") || !strings.Contains(s, "static") {
		t.Fatalf("breakdown string missing components:\n%s", s)
	}
}

func TestDefaultEnergiesSanity(t *testing.T) {
	e := DefaultEnergies()
	// SFU lane energy must sit inside the paper's 3-24x band over ALU ops.
	ratio := e.LaneSFU / e.LaneFP
	if ratio < 3 || ratio > 24 {
		t.Errorf("SFU/FP ratio %.1f outside the paper's 3-24x band", ratio)
	}
	// BVR access = 5.2% of a full 8-array bank access (§5.1).
	frac := e.RFBVRAccess / (8 * e.RFArrayAccess)
	if math.Abs(frac-BVREBRAccessFrac) > 0.005 {
		t.Errorf("BVR access fraction %.3f, want %.3f", frac, BVREBRAccessFrac)
	}
	// Our codec energy is 19-30% of the BDI comparator's (§5.1).
	cfrac := e.CompressorUse / e.BDICodecUse
	if cfrac < 0.19 || cfrac > 0.30 {
		t.Errorf("codec ratio %.2f outside 0.19..0.30", cfrac)
	}
	// Memory hierarchy energies must be ordered.
	if !(e.L1Access < e.L2Access && e.L2Access < e.DRAMPerByte*128) {
		t.Error("memory hierarchy energies not ordered L1 < L2 < DRAM")
	}
}

func TestStaticW(t *testing.T) {
	e := DefaultEnergies()
	base := e.StaticW(15, false)
	with := e.StaticW(15, true)
	if with <= base {
		t.Fatal("codec static not added")
	}
	if d := with - base; math.Abs(d-15*(e.CodecStaticPerSM+e.BVRStaticPerSM)) > 1e-9 {
		t.Fatalf("codec static delta = %v", d)
	}
}

func TestTable3Cost(t *testing.T) {
	c := Table3Cost()
	// The paper: 16 decompressors + 4 compressors per SM cost ~0.32 W and
	// ~0.16 mm².
	if math.Abs(c.TotalPowerWPerSM-0.3186) > 0.01 {
		t.Errorf("codec power = %v W, want ~0.32", c.TotalPowerWPerSM)
	}
	if math.Abs(c.TotalAreaMM2PerSM-0.1638) > 0.01 {
		t.Errorf("codec area = %v mm2, want ~0.16", c.TotalAreaMM2PerSM)
	}
	if c.DecompressorsPerSM != 16 || c.CompressorsPerSM != 4 {
		t.Errorf("instances = %d/%d", c.DecompressorsPerSM, c.CompressorsPerSM)
	}
}

func TestComponentNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Component(0); c < NumComponents; c++ {
		n := c.String()
		if n == "" || strings.HasPrefix(n, "component(") {
			t.Errorf("component %d has no name", c)
		}
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
}
