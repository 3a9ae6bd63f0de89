package sm

import (
	"testing"

	"gscalar/internal/power"
)

func TestArchPresets(t *testing.T) {
	b := Baseline()
	if b.RVC != RVCNone || b.Scalar != ScalarNone || b.extraLatency() != 0 || b.HasCodec() {
		t.Errorf("baseline = %+v", b)
	}
	a := PriorScalarRF()
	if a.Scalar != ScalarPriorRF || a.RVC != RVCNone || a.extraLatency() != 0 {
		t.Errorf("prior scalar RF = %+v", a)
	}
	w := WarpedCompression()
	if w.RVC != RVCBDI || w.Scalar != ScalarNone || !w.HasCodec() {
		t.Errorf("warped compression = %+v", w)
	}
	if w.extraLatency() != power.ExtraPipelineCycles {
		t.Errorf("WC latency = %d", w.extraLatency())
	}
	r := RVCOnly()
	if r.RVC != RVCByteWise || r.Scalar != ScalarNone || !r.F.HalfCompression {
		t.Errorf("rvc-only = %+v", r)
	}
	if r.F.HalfScalar || r.F.DivergentScalar {
		t.Error("rvc-only must not enable scalar execution")
	}
	if r.extraLatency() != power.ExtraPipelineCycles {
		t.Errorf("rvc-only latency = %d", r.extraLatency())
	}
	g := GScalar()
	if g.RVC != RVCByteWise || g.Scalar != ScalarGS {
		t.Errorf("gscalar = %+v", g)
	}
	f := g.F
	if !(f.HalfCompression && f.HalfScalar && f.DivergentScalar) {
		t.Errorf("gscalar features = %+v", f)
	}
	nd := GScalarNoDiv()
	if nd.F.DivergentScalar || nd.F.HalfScalar {
		t.Errorf("gscalar-nodiv features = %+v", nd.F)
	}
	if nd.Scalar != ScalarGS || !nd.F.HalfCompression {
		t.Errorf("gscalar-nodiv = %+v", nd)
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
	if c.NumSMs != 15 || c.CoreClockHz != 1.4e9 || c.MemChannels != 6 {
		t.Errorf("chip = %+v", c)
	}
	if c.WarpSize != 32 || c.SchedulersPerSM != 2 || c.RegFileBanks != 16 ||
		c.CollectorsPerSM != 16 || c.MaxCTAsPerSM != 8 || c.MaxWarpsPerSM != 48 {
		t.Errorf("config = %+v", c)
	}
	if ALUUnits != 2 || c.SIMTWidth != 16 || SFUWidth != 4 {
		t.Errorf("pipelines = %d x %d lanes, SFU %d lanes", ALUUnits, c.SIMTWidth, SFUWidth)
	}
	if c.RegFileKB != 128 || c.L1Bytes != 16<<10 || c.L2Bytes != 768<<10 {
		t.Errorf("capacities = %+v", c)
	}
	if c.MaxCycles != 0 || c.Workers != 0 || c.EpochCycles != 0 {
		t.Errorf("run bounds and schedule = %+v, want the serial schedule", c)
	}
	if a := GScalar(); a.Sched != SchedGTO {
		t.Errorf("default scheduler = %v, want GTO", a.Sched)
	}
}
