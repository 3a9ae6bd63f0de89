package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gscalar"
	"gscalar/internal/serve"
	"gscalar/internal/store"
	"gscalar/internal/trace"
	"gscalar/internal/workloads"
)

// serve-mixed: an in-process sweep server over a fresh store behind a
// loopback listener, driven by two closed-loop clients. Each client submits
// one single-point job, polls its status every pollInterval until it is
// done, fetches the result, and only then takes the next request.
// pollInterval is the one the repository's own serve benchmark
// (BenchmarkServe) polls at.
const (
	pollInterval    = 2 * time.Millisecond
	serveWorkers    = 2
	serveClients    = 2
	repeatsPerRound = 40
	requestTimeout  = time.Minute
)

// The schedule is built in rounds; every round has the same make-up:
//   - three cold points, each a store write: a builtin (rotating through
//     serveBuiltins x all archs), a replay of a trace captured during
//     set-up (rotating through traceBuiltins x all archs), and a generated
//     kernel seeded from the benchmark seed and the round. Once a rotation
//     has used every key it starts over with a config whose MaxCycles
//     (the runaway bound) is raised by one: a fresh key for the same
//     simulation, so every round costs the same however many rounds run;
//   - a concurrent duplicate of the generated point, submitted right after
//     it so the two clients send it together: a singleflight join, or a
//     store hit when the first copy finishes before the second arrives;
//   - repeatsPerRound repeats of keys completed in earlier rounds: store
//     reads.
//
// The mix is an assumption, not recorded traffic: the only recorded
// pattern, BenchmarkServe's cold sweep plus one identical resubmission, has
// one repeat per cold point, which would put the median request on the
// boundary between store hits and simulations. 40 repeats per 3 cold points
// (hit ratio about 0.93) model a server answering mostly finished points,
// with the p50 among store reads and the p99 among simulations. The
// builtins are the cheapest Table 2 kernels, so that store traffic, not
// simulation, sets the pace of most requests. README.md reports how
// req_per_s and req_p99_ms move with the ratio.
var (
	serveBuiltins = []string{"SR2", "HW", "SR1", "LC", "BT", "HS"}
	traceBuiltins = []string{"SR2", "HW"}
)

const (
	serveGenDials = "gen:mem=0.2,occ=0.2"
	warmSpec      = "gen:occ=0.05"
)

type request struct {
	arch      gscalar.Arch
	spec      string
	maxCycles uint64 // Config.MaxCycles; 0 submits the Table 1 config
	cold      bool
	pin       string // digests.json key the result must match, "" when none
}

// defaultMaxCycles is the simulator's runaway bound when Config.MaxCycles
// is 0; no point of the schedule comes near it.
const defaultMaxCycles = 200_000_000

// rotate picks the i-th key of a rotation through names x all archs, and
// the MaxCycles that keeps the key fresh on later passes.
func rotate(names []string, i int) (name string, arch gscalar.Arch, maxCycles uint64) {
	archs := gscalar.AllArchs()
	name, arch = names[i%len(names)], archs[(i/len(names))%len(archs)]
	if pass := i / (len(names) * len(archs)); pass > 0 {
		maxCycles = defaultMaxCycles + uint64(pass)
	}
	return name, arch, maxCycles
}

type schedule struct {
	seed   uint64
	traces []string  // trace specs, one per traceBuiltins entry
	done   []request // cold requests of completed rounds
}

// next returns round i's requests, in seed-dependent order.
func (s *schedule) next(i int) []request {
	b, bArch, bMax := rotate(serveBuiltins, i)
	t, tArch, tMax := rotate(traceBuiltins, i)
	trace := s.traces[i%len(s.traces)]
	cold := []request{
		{arch: bArch, spec: b, maxCycles: bMax, cold: true, pin: point{b, bArch, 1, loopSerial}.key()},
		// A replay re-runs the captured launch exactly, so it matches the
		// live builtin's pinned digest on every arch.
		{arch: tArch, spec: trace, maxCycles: tMax, cold: true, pin: point{t, tArch, 1, loopSerial}.key()},
		{arch: gscalar.GScalar, spec: fmt.Sprintf("%s,seed=%d", serveGenDials, uint32(s.seed*1000003+uint64(i))), cold: true},
	}
	rnd := newRNG(s.seed, uint64(i))
	out := append([]request(nil), cold...)
	for k := 0; k < repeatsPerRound; k++ {
		q := s.done[rnd.intn(len(s.done))]
		q.cold = false
		out = append(out, q)
	}
	shuffle(rnd, out)
	for j, q := range out {
		if q.cold && q.spec == cold[2].spec {
			dup := q
			dup.cold = false
			out = append(out[:j+1], append([]request{dup}, out[j+1:]...)...)
			break
		}
	}
	s.done = append(s.done, cold...)
	return out
}

// serveCounters are the server's own counters plus the clients' polls.
type serveCounters struct {
	Simulations uint64 `json:"simulations"`
	StoreHits   uint64 `json:"store_hits"`
	Joins       uint64 `json:"joins"`
	points      int
	polls       int
}

func (c serveCounters) hitRatio() float64 {
	return ratio(float64(c.StoreHits+c.Joins), float64(c.Simulations+c.StoreHits+c.Joins))
}

func (c serveCounters) pollsPerRequest() float64 { return ratio(float64(c.polls), float64(c.points)) }

// serveEnv is one set-up: captured traces, a fresh store, the server and
// its listener.
type serveEnv struct {
	dir    string
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	traces []string
}

func startServe(r *run) (*serveEnv, error) {
	dir, err := os.MkdirTemp(r.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	se := &serveEnv{dir: dir}
	for _, abbr := range traceBuiltins {
		path := filepath.Join(dir, abbr+".gstr")
		s, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.GScalar)
		if err != nil {
			se.close()
			return nil, err
		}
		s.Capture.Path = path
		res, err := s.RunWorkload(r.ctx, abbr, 1)
		if err != nil {
			se.close()
			return nil, fmt.Errorf("capturing %s: %w", abbr, err)
		}
		p := point{abbr, gscalar.GScalar, 1, loopSerial}
		r.checkDigest("capture "+p.key(), p.key(), res)
		se.traces = append(se.traces, workloads.TracePrefix+path)
	}
	if se.st, err = store.Open(filepath.Join(dir, "store")); err != nil {
		se.close()
		return nil, err
	}
	if se.srv, err = serve.New(serve.Options{Store: se.st, Workers: serveWorkers}); err != nil {
		se.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		se.close()
		return nil, err
	}
	se.hs = &http.Server{Handler: se.srv.Handler()}
	se.served = make(chan error, 1)
	go func() { se.served <- se.hs.Serve(ln) }()
	se.base = "http://" + ln.Addr().String()
	return se, nil
}

// close stops the listener and the server and removes the set-up's files;
// it returns once the serving goroutine and the workers have exited.
func (se *serveEnv) close() {
	if se.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = se.hs.Shutdown(ctx) // a timeout leaves connections to Close below
		cancel()
		_ = se.hs.Close()
		<-se.served
	}
	if se.srv != nil {
		_, _ = se.srv.Drain() // nothing is pending once every client has finished
	}
	os.RemoveAll(se.dir)
}

type client struct {
	base string
	hc   *http.Client
}

type outcome struct {
	q        request
	ms       float64 // submit to observed done
	submitMs float64 // the POST alone
	polls    int
	key      string
	fresh    bool // simulated for this request: neither a store hit nor a join
	res      gscalar.Result
	err      error
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, http.StatusOK, v)
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// do runs one request to completion.
func (c *client) do(q request) outcome {
	o := outcome{q: q}
	req := map[string]any{"arch": q.arch.String(), "workload": q.spec}
	if q.maxCycles > 0 {
		req["config"] = map[string]uint64{"MaxCycles": q.maxCycles}
	}
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	var sub struct {
		ID string `json:"id"`
	}
	if o.err = decodeResponse(resp, http.StatusAccepted, &sub); o.err != nil {
		return o
	}
	o.submitMs = msSince(t0)
	for {
		time.Sleep(pollInterval)
		o.polls++
		var st struct {
			State  string `json:"state"`
			Points []struct {
				Error string `json:"error"`
			} `json:"points"`
		}
		if o.err = c.getJSON("/api/v1/jobs/"+sub.ID, &st); o.err != nil {
			return o
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			o.err = fmt.Errorf("job %s: %s %v", sub.ID, st.State, st.Points)
			return o
		}
		if time.Since(t0) > requestTimeout {
			o.err = fmt.Errorf("job %s: still %s after %v", sub.ID, st.State, requestTimeout)
			return o
		}
	}
	o.ms = msSince(t0)
	var res struct {
		Results []struct {
			Key    string          `json:"key"`
			Cached bool            `json:"cached"`
			Joined bool            `json:"joined"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if o.err = c.getJSON("/api/v1/jobs/"+sub.ID+"/result", &res); o.err != nil {
		return o
	}
	if len(res.Results) != 1 {
		o.err = fmt.Errorf("job %s: %d results, want 1", sub.ID, len(res.Results))
		return o
	}
	pr := res.Results[0]
	o.key, o.fresh = pr.Key, !pr.Cached && !pr.Joined
	o.err = json.Unmarshal(pr.Result, &o.res)
	return o
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runRound sends one round's requests through the clients and returns once
// every request has completed.
func runRound(cs []*client, reqs []request) []outcome {
	work := make(chan request)
	var mu sync.Mutex
	var wg sync.WaitGroup
	out := make([]outcome, 0, len(reqs))
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				o := c.do(q)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	for _, q := range reqs {
		work <- q
	}
	close(work)
	wg.Wait()
	return out
}

func runServeMixed(r *run) error {
	warm := request{arch: gscalar.GScalar, spec: warmSpec, cold: true}
	var se *serveEnv
	var cs []*client
	for i := 0; i < setupRepeats; i++ {
		if se != nil {
			se.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if se, err = startServe(r); err != nil {
			return err
		}
		cs = cs[:0]
		for k := 0; k < serveClients; k++ {
			cs = append(cs, &client{base: se.base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}})
		}
		if o := cs[0].do(warm); o.err != nil {
			se.close()
			return fmt.Errorf("warm-up: %w", o.err)
		}
		r.setupDone(t0)
	}
	defer se.close()

	// A store read's latency is mostly the clients' poll sleep.
	r.p50SleepBound = true
	sched := &schedule{seed: r.o.seed, traces: se.traces, done: []request{warm}}
	sims := uint64(1)             // the warm-up
	served := map[string]string{} // arch/spec -> server key, round 0
	var submitMs []float64
	err := r.timedLoop(func(i int, profiled bool) repStat {
		var st repStat
		outs := runRound(cs, sched.next(i))
		sims += 3
		for _, o := range outs {
			r.attempted++
			r.serve.points++
			r.serve.polls += o.polls
			if o.err != nil {
				r.fail(fmt.Sprintf("%s/%s/maxcycles=%d", o.q.arch, o.q.spec, o.q.maxCycles), "%v", o.err)
				continue
			}
			r.checkDigest(o.key, o.q.pin, o.res)
			var insts, cycles uint64
			if o.fresh {
				insts, cycles = o.res.WarpInsts, o.res.Cycles
			}
			if i == 0 {
				served[o.q.arch.String()+"/"+o.q.spec] = o.key
			}
			st.add(o.ms, insts, cycles)
			submitMs = append(submitMs, o.submitMs)
		}
		r.betweenOps(&st) // the server is idle between rounds
		return st
	})
	if err != nil {
		return err
	}
	r.serve.points++ // the warm-up
	var stats serveCounters
	if err := cs[0].getJSON("/api/v1/stats", &stats); err != nil {
		return err
	}
	stats.points, stats.polls = r.serve.points, r.serve.polls
	r.serve = stats
	r.expect(stats.Simulations == sims, "serve-mixed",
		"server ran %d simulations, the schedule has %d distinct cold keys", stats.Simulations, sims)
	r.expect(stats.StoreHits+stats.Joins == uint64(stats.points)-sims, "serve-mixed",
		"%d store hits + %d joins, the schedule has %d repeats and duplicates",
		stats.StoreHits, stats.Joins, uint64(stats.points)-sims)
	if !r.o.traced {
		return nil
	}

	// Spans and simulated counts of the traced run, taken outside the
	// profiled repetitions.
	r.extra["serve.submit_ms"] = median(submitMs)
	var decode []float64
	for _, spec := range se.traces {
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			if _, err := trace.ReadFile(spec[len(workloads.TracePrefix):]); err != nil {
				return err
			}
			decode = append(decode, msSince(t0))
		}
	}
	r.extra["trace.decode_ms"] = median(decode)
	// Round 0's cold points run again on fresh Sessions with telemetry on,
	// so the server runs untraced; each must equal its served result.
	var rs []pointResult
	var pts []point
	for _, q := range sched.done[1:4] {
		p := point{q.spec, q.arch, 1, loopSerial}
		pts = append(pts, p)
		r.attempted++
		pr, err := p.run(r.ctx, true)
		if err != nil {
			r.fail(p.key(), "%v", err)
			continue
		}
		key, ok := served[q.arch.String()+"/"+q.spec]
		if !ok {
			key = p.key()
		}
		r.checkDigest(key, q.pin, pr.res)
		rs = append(rs, pr)
	}
	r.counts = simCounts(rs)
	if r.buildMs, err = timeBuilds(pts); err != nil {
		return err
	}
	r.checkReconciliation()
	return nil
}
