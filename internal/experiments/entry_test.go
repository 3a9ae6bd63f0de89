package experiments_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gscalar"
	"gscalar/internal/experiments"
	"gscalar/internal/serve"
	"gscalar/internal/store"
)

// TestMemoAndServeEntriesAgree simulates one point through the experiment
// suite's memory store and through gscalar-serve's directory store (with
// telemetry on). The two entries must be the same: key, identity fields,
// Result bytes and metrics, so either store can answer for the other.
func TestMemoAndServeEntriesAgree(t *testing.T) {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	p := experiments.Point{Config: cfg, Arch: gscalar.GScalar, Workload: "HW", Scale: 1}
	key := p.Key()

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Store: st, Workers: 1, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit([]experiments.Point{p}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !st.Contains(key); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never stored the point")
		}
	}
	if _, err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	disk, _, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}

	suite := experiments.NewSuiteContext(context.Background(), experiments.Options{Config: cfg, Workloads: []string{"HW"}})
	memo, err := suite.MemoEntry(p)
	if err != nil {
		t.Fatal(err)
	}

	if memo.Key != disk.Key || memo.ConfigHash != disk.ConfigHash || memo.Arch != disk.Arch ||
		memo.Workload != disk.Workload || memo.Scale != disk.Scale {
		t.Errorf("identities differ:\nmemo %q %q %q %q %d\ndisk %q %q %q %q %d",
			memo.Key, memo.ConfigHash, memo.Arch, memo.Workload, memo.Scale,
			disk.Key, disk.ConfigHash, disk.Arch, disk.Workload, disk.Scale)
	}
	if disk.ConfigHash == "" || key != disk.ConfigHash+"|scale=1|gscalar/HW" ||
		disk.Arch != "gscalar" || disk.Workload != "HW" || disk.Scale != 1 {
		t.Errorf("disk entry %q: config hash %q, arch %q, workload %q, scale %d", key, disk.ConfigHash, disk.Arch, disk.Workload, disk.Scale)
	}
	if len(memo.Result) == 0 || !bytes.Equal(memo.Result, disk.Result) {
		t.Errorf("Result bytes differ:\nmemo %s\ndisk %s", memo.Result, disk.Result)
	}
	if len(memo.Metrics) == 0 || !bytes.Equal(memo.Metrics, disk.Metrics) {
		t.Errorf("metrics differ (memo %d bytes, disk %d bytes)", len(memo.Metrics), len(disk.Metrics))
	}
}
