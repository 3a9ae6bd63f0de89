package gscalar_test

import (
	"encoding/json"
	"testing"

	"gscalar"
)

// TestResultJSONGolden pins the Result JSON encoding byte-for-byte. The
// snake_case field names are a stability contract for downstream tooling
// (dashboards, result diffing, the telemetry exporters): renaming a field is
// a breaking change and must show up here.
func TestResultJSONGolden(t *testing.T) {
	res := gscalar.Result{
		Cycles:      1000,
		WarpInsts:   2000,
		ThreadInsts: 64000,
		IPC:         2,
		PowerW:      100.5,
		IPCPerW:     0.0199,
		EnergyJ:     0.125,

		ExecPowerShare: 0.25,
		RFPowerShare:   0.125,
		RFDynamicJ:     0.0625,

		FracDivergent:       0.1,
		FracDivergentScalar: 0.05,
		Eligibility: gscalar.Eligibility{
			ALU: 0.2, SFU: 0.01, Mem: 0.04, Half: 0.02, Divergent: 0.03,
		},
		RFAccess: gscalar.RFAccessDist{
			Scalar: 0.3, B3: 0.1, B2: 0.05, B1: 0.025, None: 0.4, Divergent: 0.125,
		},
		InstMix: gscalar.InstMix{
			ALU: 0.6, SFU: 0.05, Mem: 0.25, Ctrl: 0.1,
		},
		CompressionRatio: 1.5,
		MoveOverhead:     0.004,

		L1MissRate:       0.375,
		DRAMTransactions: 4096,

		PowerByComponent: map[string]float64{"exec_alu": 40.25, "static": 12.5},
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"cycles":1000,"warp_insts":2000,"thread_insts":64000,"ipc":2,` +
		`"power_w":100.5,"ipc_per_w":0.0199,"energy_j":0.125,` +
		`"exec_power_share":0.25,"rf_power_share":0.125,"rf_dynamic_j":0.0625,` +
		`"frac_divergent":0.1,"frac_divergent_scalar":0.05,` +
		`"eligibility":{"alu":0.2,"sfu":0.01,"mem":0.04,"half":0.02,"divergent":0.03},` +
		`"rf_access":{"scalar":0.3,"b3":0.1,"b2":0.05,"b1":0.025,"none":0.4,"divergent":0.125},` +
		`"inst_mix":{"alu":0.6,"sfu":0.05,"mem":0.25,"ctrl":0.1},` +
		`"compression_ratio":1.5,"move_overhead":0.004,` +
		`"l1_miss_rate":0.375,"dram_transactions":4096,` +
		`"power_by_component":{"exec_alu":40.25,"static":12.5}}`
	if string(got) != want {
		t.Errorf("Result JSON:\n%s\nwant:\n%s", got, want)
	}

	// The encoding must round-trip: the tags name every field uniquely.
	var back gscalar.Result
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != res.Cycles || back.RFAccess != res.RFAccess || back.Eligibility != res.Eligibility {
		t.Errorf("round-trip mismatch:\n%+v\nvs\n%+v", back, res)
	}
}
