package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gscalar"
	"gscalar/internal/store"
)

// tinyConfig is a fast-but-real chip: 2 SMs instead of 15.
func tinyConfig() json.RawMessage {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// newTestServer builds a Server over a fresh store in dir plus an
// httptest.Server for its API. The caller owns draining.
func newTestServer(t *testing.T, dir string, o Options) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o.Store = st
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding response: %v", url, err)
	}
	return resp
}

// submit posts the request and returns the accepted job id.
func submit(t *testing.T, base string, req map[string]any) string {
	t.Helper()
	resp, body := postJSON(t, base+"/api/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var out struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// waitState polls the job until it reaches a terminal want state.
func waitState(t *testing.T, base, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		resp := getJSON(t, base+"/api/v1/jobs/"+id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
		}
		if v.State == want {
			return v
		}
		switch v.State {
		case "done", "failed", "cancelled":
			t.Fatalf("job %s reached terminal state %q (counts %v), want %q", id, v.State, v.Counts, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q (counts %v), want %q", id, v.State, v.Counts, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type resultsResponse struct {
	ID       string       `json:"id"`
	State    string       `json:"state"`
	Complete bool         `json:"complete"`
	Results  []resultView `json:"results"`
}

func getResults(t *testing.T, base, id string) resultsResponse {
	t.Helper()
	var rr resultsResponse
	getJSON(t, base+"/api/v1/jobs/"+id+"/result", &rr)
	return rr
}

// TestSubmitRunsAndStores drives the core loop: a fresh point simulates
// once, lands in the store, and an identical resubmission is served from the
// store with byte-identical Result bytes and zero additional simulation.
func TestSubmitRunsAndStores(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{Workers: 2, Telemetry: true})
	req := map[string]any{"config": tinyConfig(), "arch": "gscalar", "workload": "HW"}

	id1 := submit(t, ts.URL, req)
	waitState(t, ts.URL, id1, "done")
	r1 := getResults(t, ts.URL, id1)
	if !r1.Complete || len(r1.Results) != 1 {
		t.Fatalf("first job: complete=%v, %d results", r1.Complete, len(r1.Results))
	}
	if len(r1.Results[0].Result) == 0 || r1.Results[0].Cached {
		t.Fatalf("first run should be fresh with a result, got %+v", r1.Results[0])
	}
	var res gscalar.Result
	if err := json.Unmarshal(r1.Results[0].Result, &res); err != nil {
		t.Fatalf("result is not a gscalar.Result: %v", err)
	}
	if res.Cycles == 0 || res.WarpInsts == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if got := s.Stats(); got.Simulations != 1 || got.StoreEntries != 1 {
		t.Fatalf("after first job: %+v", got)
	}

	// Identical resubmission: store hit, zero additional simulation,
	// byte-identical Result.
	id2 := submit(t, ts.URL, req)
	waitState(t, ts.URL, id2, "done")
	r2 := getResults(t, ts.URL, id2)
	if !r2.Results[0].Cached {
		t.Fatalf("second run should be a store hit, got %+v", r2.Results[0])
	}
	if !bytes.Equal(r1.Results[0].Result, r2.Results[0].Result) {
		t.Fatalf("resubmitted point returned different Result bytes:\n%s\nvs\n%s",
			r1.Results[0].Result, r2.Results[0].Result)
	}
	if got := s.Stats(); got.Simulations != 1 || got.StoreHits != 1 {
		t.Fatalf("after resubmission: %+v", got)
	}

	// Telemetry was enabled, so the stored entry carries a metrics blob.
	var mr struct {
		Metrics []struct {
			Key     string          `json:"key"`
			Metrics json.RawMessage `json:"metrics"`
		} `json:"metrics"`
	}
	getJSON(t, ts.URL+"/api/v1/jobs/"+id1+"/metrics", &mr)
	if len(mr.Metrics) != 1 || len(mr.Metrics[0].Metrics) == 0 {
		t.Fatalf("metrics endpoint: %+v", mr)
	}
}

// TestSweepGridExpansion submits a 2-arch x 2-workload grid and expects four
// points, four simulations, and four store entries; then it resubmits the
// grid, which must simulate nothing.
func TestSweepGridExpansion(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{Workers: 2})
	grid := map[string]any{
		"config":    tinyConfig(),
		"archs":     []string{"baseline", "gscalar"},
		"workloads": []string{"HW", "HS"},
	}
	id := submit(t, ts.URL, grid)
	v := waitState(t, ts.URL, id, "done")
	if v.Counts["done"] != 4 {
		t.Fatalf("grid counts: %v", v.Counts)
	}
	if got := s.Stats(); got.Simulations != 4 || got.StoreEntries != 4 {
		t.Fatalf("after grid: %+v", got)
	}
	cold := map[string][]byte{}
	for _, r := range getResults(t, ts.URL, id).Results {
		cold[r.Arch+"/"+r.Workload] = r.Result
	}
	if len(cold) != 4 {
		t.Fatalf("grid cells: %v", cold)
	}

	id = submit(t, ts.URL, grid)
	waitState(t, ts.URL, id, "done")
	if got := s.Stats(); got.Simulations != 4 || got.StoreHits != 4 {
		t.Fatalf("after warm resubmission: %+v", got)
	}
	for _, r := range getResults(t, ts.URL, id).Results {
		if !r.Cached || !bytes.Equal(r.Result, cold[r.Arch+"/"+r.Workload]) {
			t.Errorf("%s/%s: warm point cached=%v; want a store hit with the cold Result bytes",
				r.Arch, r.Workload, r.Cached)
		}
	}
}

// TestConcurrentDuplicateSubmissions fires many copies of the same point at
// once and requires exactly one simulation: every other point either joins
// the in-flight run or hits the store, but never re-simulates — and each
// point's cached/joined flag agrees with the store_hits/joins counters.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{Workers: 4})
	req := map[string]any{"config": tinyConfig(), "arch": "gscalar", "workload": "HW"}
	const jobs = 6
	ids := make(chan string, jobs)
	for i := 0; i < jobs; i++ {
		go func() {
			resp, body := postJSON(t, ts.URL+"/api/v1/jobs", req)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit: status %d, body %s", resp.StatusCode, body)
				ids <- ""
				return
			}
			var out struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(body, &out)
			ids <- out.ID
		}()
	}
	var first []byte
	var cached, joined uint64
	for i := 0; i < jobs; i++ {
		id := <-ids
		if id == "" {
			continue
		}
		waitState(t, ts.URL, id, "done")
		rr := getResults(t, ts.URL, id)
		if first == nil {
			first = rr.Results[0].Result
		} else if !bytes.Equal(first, rr.Results[0].Result) {
			t.Fatalf("duplicate submissions disagree on Result bytes")
		}
		if rr.Results[0].Cached {
			cached++
		}
		if rr.Results[0].Joined {
			joined++
		}
	}
	got := s.Stats()
	if got.Simulations != 1 {
		t.Fatalf("%d duplicate submissions ran %d simulations, want exactly 1 (%+v)",
			jobs, got.Simulations, got)
	}
	if got.StoreHits+got.Joins != jobs-1 {
		t.Fatalf("dedup accounting: %d store hits + %d joins, want %d (%+v)",
			got.StoreHits, got.Joins, jobs-1, got)
	}
	if cached != got.StoreHits || joined != got.Joins {
		t.Fatalf("point flags: %d cached and %d joined, counters: %d store hits and %d joins",
			cached, joined, got.StoreHits, got.Joins)
	}
}

// TestCancelMidJob cancels a job while its point is mid-simulation and
// expects a well-defined partial state: status cancelled, a partial Result
// prefix reported, and nothing written to the store.
func TestCancelMidJob(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{Workers: 1, ObserverStride: 64})
	progressed := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	s.testOnProgress = func(string) {
		if once.CompareAndSwap(false, true) {
			close(progressed)
			// Hold the run at this checkpoint until the cancel request has
			// been delivered; the next checkpoint then observes it. The cut
			// is in simulated time, so the partial state is deterministic.
			<-release
		}
	}
	id := submit(t, ts.URL, map[string]any{"config": tinyConfig(), "arch": "gscalar", "workload": "HS"})
	<-progressed
	resp, body := postJSON(t, ts.URL+"/api/v1/jobs/"+id+"/cancel", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s", resp.StatusCode, body)
	}
	close(release)
	v := waitState(t, ts.URL, id, "cancelled")
	if v.Counts["cancelled"] != 1 {
		t.Fatalf("counts after cancel: %v", v.Counts)
	}
	rr := getResults(t, ts.URL, id)
	p := rr.Results[0]
	if p.Status != "cancelled" || !p.Partial || len(p.Result) == 0 {
		t.Fatalf("cancelled point state: %+v", p)
	}
	var partial gscalar.Result
	if err := json.Unmarshal(p.Result, &partial); err != nil {
		t.Fatalf("partial result does not parse: %v", err)
	}
	if partial.Cycles == 0 {
		t.Fatal("partial result has no progress recorded")
	}
	got := s.Stats()
	if got.StoreEntries != 0 {
		t.Fatalf("cancelled run must not be stored: %+v", got)
	}
	if s.st.Contains(p.Key) {
		t.Fatal("store contains the cancelled point's key")
	}
}

// TestPanickingPointFailsAlone runs a two-point job whose first point
// panics mid-run: that point fails with the panic value and its stack and
// leaves no progress snapshot or store entry behind, the second point
// completes, and the daemon still serves a later submission.
func TestPanickingPointFailsAlone(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{Workers: 1, ObserverStride: 64})
	s.testOnProgress = func(key string) {
		if strings.HasSuffix(key, "/HW") {
			panic("injected fault in HW")
		}
	}
	id := submit(t, ts.URL, map[string]any{
		"config": tinyConfig(), "arch": "gscalar", "workloads": []string{"HW", "HS"},
	})
	v := waitState(t, ts.URL, id, "failed")
	if v.Counts["done"] != 1 || v.Counts["failed"] != 1 {
		t.Fatalf("counts: %v, want one done and one failed point", v.Counts)
	}
	for _, p := range v.Points {
		want := "done"
		if p.Workload == "HW" {
			want = "failed"
			for _, frag := range []string{"injected fault in HW", "goroutine", "(*Server).simulate"} {
				if !strings.Contains(p.Error, frag) {
					t.Errorf("panicked point's error does not contain %q:\n%s", frag, p.Error)
				}
			}
			if s.st.Contains(p.Key) {
				t.Error("the store holds the panicked point")
			}
		}
		if p.Status != want {
			t.Errorf("%s: status %q, want %q", p.Workload, p.Status, want)
		}
	}
	s.mu.Lock()
	left := len(s.progress)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d progress snapshots left after the job ended", left)
	}

	id = submit(t, ts.URL, map[string]any{"config": tinyConfig(), "arch": "baseline", "workload": "HS"})
	waitState(t, ts.URL, id, "done")
	if n, err := s.Drain(); err != nil || n != 0 {
		t.Fatalf("drain: %d pending, err %v", n, err)
	}
}

// TestDrainPersistsAndResumes drains a server mid-sweep and restarts over
// the same store directory: completed points are re-served from disk,
// unfinished points resume, and no point simulates twice across the two
// lives.
func TestDrainPersistsAndResumes(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, dir, Options{Workers: 1})
	reached3 := make(chan struct{})
	release := make(chan struct{})
	var fresh atomic.Int32
	s1.testBeforeRun = func(PointSpec) {
		if fresh.Add(1) == 3 {
			close(reached3)
			// Hold the third simulation until the drain is underway, so it
			// aborts before cycle 0 and returns to the pending set.
			<-release
		}
	}
	workloads := []string{"HW", "HS", "PF", "BP"}
	id := submit(t, ts1.URL, map[string]any{
		"config": tinyConfig(), "arch": "gscalar", "workloads": workloads,
	})
	<-reached3 // two points fully done (single worker), third about to run

	drainDone := make(chan int, 1)
	go func() {
		n, err := s1.Drain()
		if err != nil {
			t.Errorf("drain: %v", err)
		}
		drainDone <- n
	}()
	for !s1.Stats().Draining {
		time.Sleep(time.Millisecond)
	}
	close(release)
	pending := <-drainDone
	if pending != 2 {
		t.Fatalf("drain persisted %d pending points, want 2", pending)
	}
	if got := s1.Stats(); got.StoreEntries != 2 || got.Simulations != 3 {
		t.Fatalf("after drain: %+v", got) // 3rd attempt started but aborted pre-cycle-0
	}
	// Draining servers reject new work.
	resp, _ := postJSON(t, ts1.URL+"/api/v1/jobs", map[string]any{"arch": "gscalar", "workload": "HW"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}

	// Second life over the same directory: the pending points resume
	// automatically as a recovered job.
	s2, ts2 := newTestServer(t, dir, Options{Workers: 1})
	deadline := time.Now().Add(30 * time.Second)
	for s2.Stats().StoreEntries != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered run did not complete: %+v", s2.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s2.Stats(); got.Simulations != 2 {
		t.Fatalf("second life re-simulated completed points: %+v", got)
	}
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	getJSON(t, ts2.URL+"/api/v1/jobs", &list)
	if len(list.Jobs) != 1 || !list.Jobs[0].Recovered {
		t.Fatalf("recovered job not listed: %+v", list.Jobs)
	}

	// The original full sweep resubmitted now costs zero simulations.
	id2 := submit(t, ts2.URL, map[string]any{
		"config": tinyConfig(), "arch": "gscalar", "workloads": workloads,
	})
	waitState(t, ts2.URL, id2, "done")
	if got := s2.Stats(); got.Simulations != 2 || got.StoreHits < 4 {
		t.Fatalf("warm resubmission: %+v", got)
	}
	if n, err := s2.Drain(); err != nil || n != 0 {
		t.Fatalf("clean drain: %d pending, err %v", n, err)
	}
	_ = id
}

// TestResumePendingWithRetiredConfigKey restarts over a pending.json whose
// configs carry DisableIdleSkip, the key every drained config had before
// chip-wide idle skipping was removed, and the retired "Relaxed": false.
// Both points resume, and since DisableIdleSkip is ignored they denote one
// simulation and one store entry.
func TestResumePendingWithRetiredConfigKey(t *testing.T) {
	dir := t.TempDir()
	cfg := `{"NumSMs": 2, "CoreClockHz": 1400000000, "WarpSize": 32, "SchedulersPerSM": 2,
		"MaxWarpsPerSM": 48, "MaxCTAsPerSM": 8, "RegFileKB": 128, "RegFileBanks": 16,
		"CollectorsPerSM": 16, "SIMTWidth": 16, "L1Bytes": 16384, "L2Bytes": 786432,
		"MemChannels": 6, "MaxCycles": 0, "Workers": 0, "Relaxed": false, "EpochCycles": 0,
		"DisableIdleSkip": %s}`
	pending := fmt.Sprintf(`{"points": [
		{"config": %s, "arch": "gscalar", "workload": "HW", "scale": 1},
		{"config": %s, "arch": "gscalar", "workload": "HW", "scale": 1}]}`,
		fmt.Sprintf(cfg, "false"), fmt.Sprintf(cfg, "true"))
	if err := os.WriteFile(filepath.Join(dir, pendingFileName), []byte(pending), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, dir, Options{Workers: 1})
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/api/v1/jobs", &list)
	if len(list.Jobs) != 1 || !list.Jobs[0].Recovered {
		t.Fatalf("recovered job not listed: %+v", list.Jobs)
	}
	waitState(t, ts.URL, list.Jobs[0].ID, "done")
	if got := s.Stats(); got.Simulations != 1 || got.StoreEntries != 1 {
		t.Fatalf("after resume: %+v", got)
	}
	if n, err := s.Drain(); err != nil || n != 0 {
		t.Fatalf("clean drain: %d pending, err %v", n, err)
	}
}

// TestSubmitValidation exercises the 400 paths: unknown arch/workload,
// malformed body, missing fields, bad scale.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{Workers: 1})
	cases := []struct {
		name string
		body any
		want string // substring of the error message
	}{
		{"unknown arch", map[string]any{"arch": "turbo", "workload": "HW"}, "unknown arch"},
		{"unknown workload", map[string]any{"arch": "gscalar", "workload": "XX"}, "unknown workload"},
		{"missing arch", map[string]any{"workload": "HW"}, "missing arch"},
		{"missing workload", map[string]any{"arch": "gscalar"}, "missing workload"},
		{"bad scale", map[string]any{"arch": "gscalar", "workload": "HW", "scale": -3}, "scale -3"},
		{"unknown field", map[string]any{"arch": "gscalar", "workload": "HW", "bogus": 1}, "unknown field"},
		{"bad config", map[string]any{"arch": "gscalar", "workload": "HW",
			"config": map[string]any{"NumSMs": -1}}, "NumSMs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/api/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, body %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("error %s does not mention %q", body, tc.want)
			}
		})
	}
	// The unknown-arch error must name the valid architectures.
	resp, body := postJSON(t, ts.URL+"/api/v1/jobs",
		map[string]any{"arch": "turbo", "workload": "HW"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "gscalar") {
		t.Fatalf("unknown-arch error should list valid names: %d %s", resp.StatusCode, body)
	}
	// Unknown job ids 404.
	var v jobView
	if resp := getJSON(t, ts.URL+"/api/v1/jobs/j999", &v); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", resp.StatusCode)
	}
}

// TestSubmitBodyLimit sends submit bodies on either side of the 1 MiB cap:
// the larger one is refused with 413 before it is parsed in full, the
// smaller one is parsed and fails validation as usual.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{Workers: 1})
	over := map[string]any{"arch": "gscalar", "workload": strings.Repeat("A", maxSubmitBytes)}
	resp, body := postJSON(t, ts.URL+"/api/v1/jobs", over)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over the cap: status %d, body %.200s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "too large") {
		t.Fatalf("over the cap: error %.200s does not say the body is too large", body)
	}
	under := map[string]any{"arch": "turbo", "workload": strings.Repeat("A", maxSubmitBytes-100)}
	resp, body = postJSON(t, ts.URL+"/api/v1/jobs", under)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown arch") {
		t.Fatalf("under the cap: status %d, body %.200s", resp.StatusCode, body)
	}
}

// TestStatsAndHealth smoke-tests the operational endpoints.
func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Options{Workers: 1})
	var st Stats
	if resp := getJSON(t, ts.URL+"/api/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if st.Workers != 1 || st.QueueCap != 1024 {
		t.Fatalf("stats defaults: %+v", st)
	}
	var h map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
}

// TestQueueFullRejected fills a tiny queue and expects 503 without side
// effects.
func TestQueueFullRejected(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir(), Options{Workers: 1, QueueDepth: 2, ObserverStride: 64})
	block := make(chan struct{})
	var once atomic.Bool
	s.testOnProgress = func(string) {
		if once.CompareAndSwap(false, true) {
			<-block
		}
	}
	defer close(block)
	// First job occupies the single worker; its remaining point plus one
	// more job fill the depth-2 queue.
	submit(t, ts.URL, map[string]any{"config": tinyConfig(), "arch": "gscalar", "workloads": []string{"HS", "HW"}})
	waitQueue := time.Now().Add(5 * time.Second)
	for s.Stats().QueueLen != 1 {
		if time.Now().After(waitQueue) {
			t.Fatalf("queue never settled: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	submit(t, ts.URL, map[string]any{"config": tinyConfig(), "arch": "baseline", "workload": "HW"})
	resp, body := postJSON(t, ts.URL+"/api/v1/jobs",
		map[string]any{"config": tinyConfig(), "arch": "baseline", "workload": "HS"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue is full") {
		t.Fatalf("overflow error: %s", body)
	}
	jobs := s.Stats().Jobs
	if jobs != 2 {
		t.Fatalf("rejected job leaked into the table: %d jobs", jobs)
	}
}

// TestStoreKeyMatchesExperimentsCache pins the cross-component contract:
// the server's point key is experiments.PointKey, the key the experiment
// suite's memory store derives for the same input, so results are
// interchangeable.
func TestStoreKeyMatchesExperimentsCache(t *testing.T) {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	spec := PointSpec{Config: cfg, Arch: gscalar.GScalar, Workload: "HW", Scale: 1}
	key := spec.Key()
	for _, frag := range []string{"|scale=1|", "gscalar/HW"} {
		if !strings.Contains(key, frag) {
			t.Fatalf("key %q lacks %q", key, frag)
		}
	}
	// Any two phased worker counts key identically: the phased loop is
	// bit-identical for every worker count (only serial Workers=0 differs).
	cfg2a, cfg2b := cfg, cfg
	cfg2a.Workers = 7
	cfg2b.Workers = 3
	k2a := PointSpec{Config: cfg2a, Arch: gscalar.GScalar, Workload: "HW", Scale: 1}.Key()
	k2b := PointSpec{Config: cfg2b, Arch: gscalar.GScalar, Workload: "HW", Scale: 1}.Key()
	if k2a != k2b {
		t.Fatalf("worker count leaked into the key:\n%s\nvs\n%s", k2a, k2b)
	}
	// A semantic config change must change the key.
	cfg3 := cfg
	cfg3.NumSMs = 3
	if got := (PointSpec{Config: cfg3, Arch: gscalar.GScalar, Workload: "HW", Scale: 1}).Key(); got == key {
		t.Fatal("distinct configs share a key")
	}
}

func ExamplePointSpec_Key() {
	cfg := gscalar.DefaultConfig()
	spec := PointSpec{Config: cfg, Arch: gscalar.GScalar, Workload: "HW", Scale: 1}
	fmt.Println(strings.Count(spec.Key(), "|"))
	// Output: 2
}
