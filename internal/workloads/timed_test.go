package workloads

import (
	"context"
	"testing"
	"time"

	"gscalar/internal/core"
	"gscalar/internal/gpu"
	"gscalar/internal/sm"
)

// shape records the dynamic character each benchmark was built to have
// (the properties that drive Figures 1 and 8–12). Ranges are generous —
// they pin the *shape*, not exact numbers — but tight enough that a
// regression in divergence handling, detection or workload structure
// trips them.
type shape struct {
	divLo, divHi   float64 // divergent-instruction fraction
	eligLo, eligHi float64 // scalar-eligible fraction under G-Scalar
	divScalarMin   float64 // divergent-scalar eligibility (Fig 9 category)
	halfMin        float64 // half-warp scalar eligibility
}

var shapes = map[string]shape{
	"BT":  {0.00, 0.20, 0.10, 0.40, 0, 0},
	"BP":  {0.00, 0.05, 0.40, 0.70, 0, 0.05},
	"HW":  {0.35, 0.70, 0.30, 0.65, 0.15, 0},
	"HS":  {0.25, 0.60, 0.25, 0.60, 0.10, 0},
	"LC":  {0.30, 0.70, 0.05, 0.35, 0, 0},
	"PF":  {0.02, 0.30, 0.15, 0.50, 0, 0},
	"SR1": {0.00, 0.05, 0.15, 0.45, 0, 0},
	"SR2": {0.20, 0.55, 0.15, 0.45, 0.08, 0},
	"CC":  {0.05, 0.35, 0.40, 0.80, 0, 0},
	"LBM": {0.35, 0.70, 0.15, 0.45, 0.15, 0},
	"MG":  {0.00, 0.10, 0.10, 0.45, 0, 0},
	"MQ":  {0.00, 0.05, 0.40, 0.75, 0, 0},
	"SAD": {0.40, 0.80, 0.15, 0.50, 0.10, 0},
	"MM":  {0.00, 0.05, 0.30, 0.65, 0, 0.10},
	"MV":  {0.15, 0.50, 0.00, 0.10, 0, 0},
	"ST":  {0.00, 0.10, 0.30, 0.65, 0, 0},
	"ACF": {0.10, 0.45, 0.20, 0.55, 0, 0},
}

// TestAllWorkloadsTimed runs every workload through the timed simulator
// under the full G-Scalar architecture, validates functional output against
// the host golden model, and pins each benchmark's dynamic character.
func TestAllWorkloadsTimed(t *testing.T) {
	if testing.Short() {
		t.Skip("full timed runs")
	}
	cfg := gpu.DefaultConfig()
	for _, w := range All() {
		t.Run(w.Abbr, func(t *testing.T) {
			inst, err := w.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := gpu.RunContext(context.Background(), cfg, sm.GScalar(), inst.Prog, inst.Launch, inst.Mem)
			if err != nil {
				t.Fatal(err)
			}
			if inst.Check != nil {
				if err := inst.Check(); err != nil {
					t.Fatal(err)
				}
			}
			st := &res.Stats
			total := float64(st.WarpInsts)
			div := float64(st.Divergent) / total
			elig := float64(st.EligibleTotal()) / total
			divScalar := float64(st.EligDiv) / total
			half := float64(st.EligHalf) / total

			sh, ok := shapes[w.Abbr]
			if !ok {
				t.Fatalf("no shape entry for %s", w.Abbr)
			}
			// Figure 8 spot checks for the benchmarks the paper singles
			// out: CC/MQ scalar-rich reads; MG/MV partial-byte-rich with
			// few scalars; LBM's reads dominated by divergent accesses.
			switch w.Abbr {
			case "CC", "MQ":
				if f := st.RFReadFrac(core.AccessScalar); f < 0.4 {
					t.Errorf("scalar reads = %.2f, want >= 0.4", f)
				}
			case "MG", "MV":
				partial := st.RFReadFrac(core.Access3Byte) + st.RFReadFrac(core.Access2Byte)
				if partial < 0.3 {
					t.Errorf("2/3-byte reads = %.2f, want >= 0.3", partial)
				}
				if f := st.RFReadFrac(core.AccessScalar); f > 0.35 {
					t.Errorf("scalar reads = %.2f, want few (< 0.35)", f)
				}
			case "LBM":
				if f := st.RFReadFrac(core.AccessDivergent); f < 0.4 {
					t.Errorf("divergent-class reads = %.2f, want >= 0.4", f)
				}
			}
			if div < sh.divLo || div > sh.divHi {
				t.Errorf("divergent = %.2f, want [%.2f, %.2f]", div, sh.divLo, sh.divHi)
			}
			if elig < sh.eligLo || elig > sh.eligHi {
				t.Errorf("eligible = %.2f, want [%.2f, %.2f]", elig, sh.eligLo, sh.eligHi)
			}
			if divScalar < sh.divScalarMin {
				t.Errorf("divergent-scalar = %.2f, want >= %.2f", divScalar, sh.divScalarMin)
			}
			if half < sh.halfMin {
				t.Errorf("half-scalar = %.2f, want >= %.2f", half, sh.halfMin)
			}
			t.Logf("%s: cycles=%d warpinsts=%d IPC=%.2f P=%.1fW elig=%.1f%% div=%.1f%% wall=%v",
				w.Abbr, res.Stats.Cycles, st.WarpInsts, res.Stats.IPC(), res.Power.AvgPowerW,
				100*elig, 100*div, time.Since(start).Round(time.Millisecond))
		})
	}
}
