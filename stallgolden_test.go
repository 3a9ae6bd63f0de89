package gscalar_test

import (
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
// the SM's parked-entry bookkeeping would show.
type stallGoldenPoint struct {
	Key             string  `json:"key"`
	Cycles          uint64  `json:"cycles"`
	WarpInsts       uint64  `json:"warp_insts"`
	StallUnit       float64 `json:"sm.stall_unit"`
	StallCollector  float64 `json:"sm.stall_collector"`
	StallScoreboard float64 `json:"sm.stall_scoreboard"`
	LSUPJ           float64 `json:"power.lsu_pj"`
	ResultSHA256    string  `json:"result_sha256"`
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

// stallGoldenWorkloads are memory-stalled kernels: MV and a low-occupancy
// uncoalesced generated kernel keep the MSHR file full on G-Scalar, and LBM
// does on the baseline.
var stallGoldenWorkloads = []struct {
	spec string
	arch gscalar.Arch
}{
	{"MV", gscalar.GScalar},
	{"gen:mem=0.45,coal=0,occ=0.25,seed=1", gscalar.GScalar},
	{"LBM", gscalar.Baseline},
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
	res, err := s.RunWorkload(context.Background(), spec, 1)
	if err != nil {
		t.Fatalf("%s on %s: %v", spec, arch, err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	p := stallGoldenPoint{
		Cycles:       res.Cycles,
		WarpInsts:    res.WarpInsts,
		ResultSHA256: hex.EncodeToString(sum[:]),
	}
	for _, c := range s.Metrics().Counters {
		switch c.Name {
		case "sm.stall_unit":
			p.StallUnit += c.Value
		case "sm.stall_collector":
			p.StallCollector += c.Value
		case "sm.stall_scoreboard":
			p.StallScoreboard += c.Value
		case "power.lsu_pj":
			p.LSUPJ += c.Value
		}
	}
	return p
}

// TestStallAccountingGolden pins memory-stalled runs under every schedule:
// cycles, instructions, the issue-stall counters, LSU energy and the
// Result bytes. A change to how the SM waits on busy units, full MSHR files
// or a full collector set must leave every one of them unchanged.
// Regenerate with `go test -run TestStallAccountingGolden
// -update-stall-golden .` only for a deliberate change to the model.
func TestStallAccountingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full-chip simulations")
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
