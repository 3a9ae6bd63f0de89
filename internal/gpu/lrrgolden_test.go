package gpu

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"gscalar/internal/sm"
	"gscalar/internal/workloads"
)

var updateLRRGolden = flag.Bool("update-lrr-golden", false, "rewrite testdata/lrr_golden.json from this build")

const lrrGoldenPath = "testdata/lrr_golden.json"

// lrrGoldenPoint is one pinned simulation under loose round-robin
// scheduling. The issue-stall counters are pinned on their own as well as
// inside the Result digest, so a failure says which count moved.
type lrrGoldenPoint struct {
	Key             string `json:"key"`
	Cycles          uint64 `json:"cycles"`
	WarpInsts       uint64 `json:"warp_insts"`
	StallUnit       uint64 `json:"stall_unit"`
	StallCollector  uint64 `json:"stall_collector"`
	StallScoreboard uint64 `json:"stall_scoreboard"`
	ResultSHA256    string `json:"result_sha256"`
}

// lrrGoldenWorkloads pair memory-stalled kernels (MV and a low-occupancy
// uncoalesced generated kernel, whose warps queue for collectors) with
// unit-bound ones (HS, and MM on the baseline). LBM's CTAs finish out of
// launch order, so later CTAs take warp slots below older ones: of these
// points, only LBM tells a walk in slot order from one in age order.
var lrrGoldenWorkloads = []struct {
	spec string
	arch string
}{
	{"HS", "gscalar"},
	{"MV", "gscalar"},
	{"MM", "baseline"},
	{"gen:mem=0.45,coal=0,occ=0.25,seed=1", "gscalar"},
	{"LBM", "gscalar"},
}

// lrrGoldenSchedules are the chip-loop schedules each point runs under.
var lrrGoldenSchedules = []struct {
	name           string
	workers, epoch int
}{
	{"serial", 0, 0},
	{"phased", 2, 0},
	{"relaxed", 2, 256},
}

func runLRRGoldenPoint(t *testing.T, spec, arch string, workers, epoch int) lrrGoldenPoint {
	t.Helper()
	src, err := workloads.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := src.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SM.Sched = sm.SchedLRR
	cfg.Workers = workers
	cfg.EpochCycles = epoch
	model := sm.GScalar()
	if arch == "baseline" {
		model = sm.Baseline()
	}
	res, err := RunContext(context.Background(), cfg, model, inst.Prog, inst.Launch, inst.Mem)
	if err != nil {
		t.Fatalf("%s on %s: %v", spec, arch, err)
	}
	blob, err := json.Marshal(relaxedResult(res))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return lrrGoldenPoint{
		Cycles:          res.Cycles,
		WarpInsts:       res.Stats.WarpInsts,
		StallUnit:       res.Stats.IssueStallUnit,
		StallCollector:  res.Stats.IssueStallOC,
		StallScoreboard: res.Stats.IssueStallScoreboard,
		ResultSHA256:    hex.EncodeToString(sum[:]),
	}
}

// TestLRRGolden pins loose round-robin runs under every schedule: cycles,
// instructions, the issue-stall counters and the Result bytes (less the
// execution metadata). The order in which LRR tries its warps decides which
// warp issues, so a walk that visits them in another order moves these
// numbers; the scheduler experiment prints LRR IPC to two decimals and
// would not notice. Regenerate with `go test ./internal/gpu -run
// TestLRRGolden -update-lrr-golden` only for a deliberate change to the
// model.
func TestLRRGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fifteen full-chip simulations")
	}
	var got []lrrGoldenPoint
	for _, w := range lrrGoldenWorkloads {
		for _, sc := range lrrGoldenSchedules {
			p := runLRRGoldenPoint(t, w.spec, w.arch, sc.workers, sc.epoch)
			p.Key = sc.name + "/" + w.arch + "/" + w.spec
			got = append(got, p)
		}
	}
	if *updateLRRGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lrrGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(lrrGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []lrrGoldenPoint
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
