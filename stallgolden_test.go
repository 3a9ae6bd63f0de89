package gscalar_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"gscalar"
)

var updateStallGolden = flag.Bool("update-stall-golden", false, "rewrite testdata/stall_golden.json from this build")

const stallGoldenPath = "testdata/stall_golden.json"

// stallGoldenPoint is one pinned simulation of the stall-accounting golden.
// Result has no stall counters, so a Result digest alone cannot catch a
// miscounted stall: the golden also pins the telemetry totals of the three
// issue-stall counters and of the LSU energy, which is where a mistake in
// the SM's parked-entry bookkeeping would show, and of the L1 misses, the
// L2 accesses and the accesses merged into an in-flight L1 fill, which is
// where a mistake in fill tracking would show. The digests of the three
// telemetry exports pin the absolute content of a real run's counters and
// series, which the exporter goldens (a hand-built fixture) and tracedet
// (replay against live) do not.
type stallGoldenPoint struct {
	Key             string  `json:"key"`
	Cycles          uint64  `json:"cycles"`
	WarpInsts       uint64  `json:"warp_insts"`
	StallUnit       float64 `json:"sm.stall_unit"`
	StallCollector  float64 `json:"sm.stall_collector"`
	StallScoreboard float64 `json:"sm.stall_scoreboard"`
	LSUPJ           float64 `json:"power.lsu_pj"`
	MSHRMerges      float64 `json:"sm.mshr_merges"`
	L1Misses        float64 `json:"sm.l1_misses"`
	L2Accesses      float64 `json:"sm.l2_accesses"`
	ResultSHA256    string  `json:"result_sha256"`
	MetricsJSON     string  `json:"metrics_json_sha256"`
	MetricsCSV      string  `json:"metrics_csv_sha256"`
	MetricsTrace    string  `json:"metrics_trace_sha256"`
}

// stallGoldenSchedules are the chip-loop schedules each point runs under.
var stallGoldenSchedules = []struct {
	name           string
	workers, epoch int
}{
	{"serial", 0, 0},
	{"phased", 2, 0},
	{"relaxed", 2, 256},
}

// stallGoldenWorkloads are memory-stalled kernels and high-IPC ones: MV and
// a low-occupancy uncoalesced generated kernel keep the MSHR file full on
// G-Scalar, and LBM does on the baseline; HS on G-Scalar and MM on the
// baseline keep collectors waiting on busy execution units instead.
var stallGoldenWorkloads = []struct {
	spec string
	arch gscalar.Arch
}{
	{"MV", gscalar.GScalar},
	{"gen:mem=0.45,coal=0,occ=0.25,seed=1", gscalar.GScalar},
	{"LBM", gscalar.Baseline},
	{"HS", gscalar.GScalar},
	{"MM", gscalar.Baseline},
}

func runStallGoldenPoint(t *testing.T, spec string, arch gscalar.Arch, workers, epoch int) stallGoldenPoint {
	t.Helper()
	cfg := gscalar.DefaultConfig()
	cfg.Workers = workers
	cfg.EpochCycles = epoch
	s, err := gscalar.NewSession(cfg, arch)
	if err != nil {
		t.Fatal(err)
	}
	s.Telemetry.Enabled = true
	// A checkpoint every 1000 cycles: relaxed epochs of 256 cycles cross
	// the marks, so the series pins where a crossing epoch samples.
	s.ObserverStride = 1000
	res, err := s.RunWorkload(context.Background(), spec, 1)
	if err != nil {
		t.Fatalf("%s on %s: %v", spec, arch, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	mjson, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var csv, trace bytes.Buffer
	if err := m.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	p := stallGoldenPoint{
		Cycles:       res.Cycles,
		WarpInsts:    res.WarpInsts,
		ResultSHA256: sha256Hex(blob),
		MetricsJSON:  sha256Hex(mjson),
		MetricsCSV:   sha256Hex(csv.Bytes()),
		MetricsTrace: sha256Hex(trace.Bytes()),
	}
	for _, c := range m.Counters {
		switch c.Name {
		case "sm.stall_unit":
			p.StallUnit += c.Value
		case "sm.stall_collector":
			p.StallCollector += c.Value
		case "sm.stall_scoreboard":
			p.StallScoreboard += c.Value
		case "power.lsu_pj":
			p.LSUPJ += c.Value
		case "sm.mshr_merges":
			p.MSHRMerges += c.Value
		case "sm.l1_misses":
			p.L1Misses += c.Value
		case "sm.l2_accesses":
			p.L2Accesses += c.Value
		}
	}
	return p
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestStallAccountingGolden pins memory-stalled and unit-bound runs under
// every schedule: cycles, instructions, the issue-stall counters, LSU
// energy, the Result bytes and the exported telemetry. A change to how the SM waits on busy units, full MSHR files
// or a full collector set must leave every one of them unchanged.
// Regenerate with `go test -run TestStallAccountingGolden
// -update-stall-golden .` only for a deliberate change to the model.
func TestStallAccountingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen full-chip simulations")
	}
	var got []stallGoldenPoint
	for _, w := range stallGoldenWorkloads {
		for _, sc := range stallGoldenSchedules {
			p := runStallGoldenPoint(t, w.spec, w.arch, sc.workers, sc.epoch)
			p.Key = sc.name + "/" + w.arch.String() + "/" + w.spec
			got = append(got, p)
		}
	}
	if *updateStallGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stallGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(stallGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []stallGoldenPoint
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", got[i].Key, got[i], want[i])
		}
	}
}
