package sm

import (
	"testing"

	"gscalar/internal/power"
)

func TestArchPresets(t *testing.T) {
	b := Baseline()
	if b.RVC != RVCNone || b.Scalar != ScalarNone || b.ExtraLatency != 0 || b.HasCodec() {
		t.Errorf("baseline = %+v", b)
	}
	a := PriorScalarRF()
	if a.Scalar != ScalarPriorRF || a.RVC != RVCNone || a.ExtraLatency != 0 {
		t.Errorf("prior scalar RF = %+v", a)
	}
	w := WarpedCompression()
	if w.RVC != RVCBDI || w.Scalar != ScalarNone || !w.HasCodec() {
		t.Errorf("warped compression = %+v", w)
	}
	if w.ExtraLatency != power.ExtraPipelineCycles {
		t.Errorf("WC latency = %d", w.ExtraLatency)
	}
	r := RVCOnly()
	if r.RVC != RVCByteWise || r.Scalar != ScalarNone || !r.F.HalfCompression {
		t.Errorf("rvc-only = %+v", r)
	}
	if r.F.ScalarALU || r.F.DivergentScalar {
		t.Error("rvc-only must not enable scalar execution")
	}
	g := GScalar()
	if g.RVC != RVCByteWise || g.Scalar != ScalarGS {
		t.Errorf("gscalar = %+v", g)
	}
	f := g.F
	if !(f.HalfCompression && f.ScalarALU && f.ScalarSFU &&
		f.ScalarMem && f.HalfScalar && f.DivergentScalar) {
		t.Errorf("gscalar features = %+v", f)
	}
	nd := GScalarNoDiv()
	if nd.F.DivergentScalar || nd.F.HalfScalar {
		t.Errorf("gscalar-nodiv features = %+v", nd.F)
	}
	if !nd.F.ScalarSFU || !nd.F.ScalarMem {
		t.Error("gscalar-nodiv must still cover SFU/mem")
	}
	ca := GScalarCompilerAssist()
	if !ca.CompilerMoveElision {
		t.Error("compiler-assist preset missing elision flag")
	}
	if ca.F != GScalar().F {
		t.Error("compiler-assist must otherwise match G-Scalar")
	}
	// G-Scalar's detection reads the byte-wise compression metadata, which
	// the SM builds only for the byte-wise register file.
	for name, p := range map[string]Arch{
		"baseline": b, "prior scalar RF": a, "warped compression": w, "rvc-only": r,
		"gscalar": g, "gscalar-nodiv": nd, "compiler-assist": ca,
	} {
		if p.Scalar == ScalarGS && p.RVC != RVCByteWise {
			t.Errorf("%s: G-Scalar execution without the byte-wise register file (%+v)", name, p)
		}
	}
}

func TestDefaultConfigTable1(t *testing.T) {
	c := DefaultConfig()
	if c.WarpSize != 32 || c.Schedulers != 2 || c.NumBanks != 16 ||
		c.NumCollectors != 16 || c.MaxCTAs != 8 || c.MaxWarps != 48 {
		t.Errorf("config = %+v", c)
	}
	if c.ALUUnits != 2 || c.ALUWidth != 16 || c.MemWidth != 16 || c.SFUWidth != 4 {
		t.Errorf("pipelines = %+v", c)
	}
	if c.RegFileBytes != 128<<10 || c.L1Bytes != 16<<10 {
		t.Errorf("capacities = %+v", c)
	}
	if c.Sched != SchedGTO {
		t.Errorf("default scheduler = %v, want GTO", c.Sched)
	}
}
