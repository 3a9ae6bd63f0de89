package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"gscalar"
	"gscalar/internal/workloads"
)

// Chip loops a point can run on. The parallel loops use both host cores.
const (
	loopSerial  = "serial"
	loopPhased  = "phased"
	loopRelaxed = "relaxed"

	parallelWorkers = 2
	relaxedEpoch    = 256
)

// point is one simulation: a workload spec on an architecture at a scale,
// under one chip loop.
type point struct {
	spec  string
	arch  gscalar.Arch
	scale int
	loop  string
}

// key names the point in digests.json and in failure messages.
func (p point) key() string {
	return fmt.Sprintf("%s/%s/%s/%d", p.loop, p.arch, p.spec, p.scale)
}

func (p point) config() gscalar.Config {
	c := gscalar.DefaultConfig()
	switch p.loop {
	case loopPhased:
		c.Workers = parallelWorkers
	case loopRelaxed:
		c.Workers = parallelWorkers
		c.EpochCycles = relaxedEpoch
	}
	return c
}

// ranAsAsked reports whether res ran on the point's loop and, for the
// parallel loops, with both workers.
func (p point) ranAsAsked(res gscalar.Result) bool {
	return res.ExecMode == p.loop && (p.loop == loopSerial || res.ResolvedWorkers == parallelWorkers)
}

type pointResult struct {
	p       point
	res     gscalar.Result
	metrics *gscalar.Metrics
	ms      float64 // host wall time of Session.RunWorkload
}

// run simulates the point on a fresh Session; RunWorkload also runs the
// builtin's golden-output check.
func (p point) run(ctx context.Context, telemetry bool) (pointResult, error) {
	s, err := gscalar.NewSession(p.config(), p.arch)
	if err != nil {
		return pointResult{}, err
	}
	s.Telemetry.Enabled = telemetry
	t0 := time.Now()
	res, err := s.RunWorkload(ctx, p.spec, p.scale)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	return pointResult{p: p, res: res, metrics: s.Metrics(), ms: ms}, err
}

// digest hashes a Result's JSON with the execution metadata stripped, so it
// names what was simulated, not how the host ran it.
func digest(r gscalar.Result) string {
	r.ExecMode, r.ResolvedWorkers = "", 0
	b, err := json.Marshal(r)
	if err != nil {
		panic("perfbench: marshalling a Result: " + err.Error()) // plain data; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// timeBuilds times workloads.Resolve plus Source.Build for each distinct
// (spec, scale), in milliseconds.
func timeBuilds(pts []point) ([]float64, error) {
	seen := map[string]bool{}
	var ms []float64
	for _, p := range pts {
		k := fmt.Sprintf("%s/%d", p.spec, p.scale)
		if seen[k] {
			continue
		}
		seen[k] = true
		t0 := time.Now()
		src, err := workloads.Resolve(p.spec)
		if err != nil {
			return nil, fmt.Errorf("resolving %s: %w", p.spec, err)
		}
		if _, err := src.Build(p.scale); err != nil {
			return nil, fmt.Errorf("building %s: %w", p.spec, err)
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return ms, nil
}

// The point sets of the simulator workloads.

// fig11Archs are Figure 11's architectures.
var fig11Archs = []gscalar.Arch{gscalar.Baseline, gscalar.ALUScalar, gscalar.GScalarNoDiv, gscalar.GScalar}

// paperPoints is every Table 2 builtin on each arch at scale 1, default
// config and loop.
func paperPoints(archs ...gscalar.Arch) []point {
	var pts []point
	for _, abbr := range gscalar.Workloads() {
		for _, a := range archs {
			pts = append(pts, point{abbr, a, 1, loopSerial})
		}
	}
	return pts
}

// stallGenSeeds are the generator seeds of stall-bound's kernels. They are
// fixed rather than taken from the benchmark seed: a kernel's simulated
// cycles vary by about 15% with its generator seed, and stall-bound's host
// time is per cycle, so seed-derived kernels made its throughput spread
// across benchmark seeds by more than its bound allows. The benchmark seed
// orders the points.
var stallGenSeeds = []int{1, 2}

// stallPoints are memory-bound, low-occupancy generated kernels plus MV.
func stallPoints() []point {
	var pts []point
	for _, occ := range []string{"0.25", "0.1"} {
		for _, s := range stallGenSeeds {
			pts = append(pts, point{fmt.Sprintf("gen:mem=0.45,coal=0,occ=%s,seed=%d", occ, s), gscalar.GScalar, 1, loopSerial})
		}
	}
	return append(pts, point{"MV", gscalar.GScalar, 1, loopSerial})
}

// parallelPoints is LBM and HS at scale 4 on both parallel loops: the
// points of the relaxed-loop accuracy metric.
func parallelPoints() []point {
	var pts []point
	for _, abbr := range []string{"LBM", "HS"} {
		for _, loop := range []string{loopPhased, loopRelaxed} {
			pts = append(pts, point{abbr, gscalar.GScalar, 4, loop})
		}
	}
	return pts
}

// The paper's Figure 11 means.
const (
	paperIPCW = 1.24
	paperIPC  = 0.983
)

// paperGaps computes the Figure 11 accuracy metrics from baseline and
// G-Scalar results keyed by point key, summing in Table 2 order.
func paperGaps(res map[string]gscalar.Result) (ipcw, ipc float64, ok bool) {
	var sw, si float64
	abbrs := gscalar.Workloads()
	for _, a := range abbrs {
		b, okB := res[point{a, gscalar.Baseline, 1, loopSerial}.key()]
		g, okG := res[point{a, gscalar.GScalar, 1, loopSerial}.key()]
		if !okB || !okG {
			return 0, 0, false
		}
		sw += g.IPCPerW / b.IPCPerW
		si += g.IPC / b.IPC
	}
	n := float64(len(abbrs))
	return 100 * math.Abs(sw/n-paperIPCW) / paperIPCW, 100 * math.Abs(si/n-paperIPC) / paperIPC, true
}

// relaxedCycleErr is the mean |relaxed - phased| / phased simulated cycles
// over LBM and HS at scale 4, in percent.
func relaxedCycleErr(res map[string]gscalar.Result) (float64, bool) {
	var sum float64
	abbrs := []string{"LBM", "HS"}
	for _, a := range abbrs {
		ph, okP := res[point{a, gscalar.GScalar, 4, loopPhased}.key()]
		rx, okR := res[point{a, gscalar.GScalar, 4, loopRelaxed}.key()]
		if !okP || !okR || ph.Cycles == 0 {
			return 0, false
		}
		sum += math.Abs(float64(rx.Cycles)-float64(ph.Cycles)) / float64(ph.Cycles)
	}
	return 100 * sum / float64(len(abbrs)), true
}

func byKey(rs []pointResult) map[string]gscalar.Result {
	m := make(map[string]gscalar.Result, len(rs))
	for _, r := range rs {
		m[r.p.key()] = r.res
	}
	return m
}

// reference holds the deterministic accuracy metrics of one build of the
// simulator. They are properties of the model, not of a workload's
// inputs, so every workload reports them; paper-sweep recomputes its
// Figure 11 gaps each repetition and must match exactly.
type reference struct {
	PaperGapIPCW float64 `json:"paper_gap_ipcw_pct"`
	PaperGapIPC  float64 `json:"paper_gap_ipc_pct"`
	RelaxedErr   float64 `json:"relaxed_cycle_err_pct"`
	// Checked counts the reference's checks: per point, its pinned digest
	// and its loop and worker count. Failures names each check that failed;
	// every run counts both into its attempted and failed operations.
	Checked  int      `json:"checked"`
	Failures []string `json:"failures"`
}

// computeReference simulates the Figure 11 baseline and G-Scalar points and
// the parallel-loop points, checking each against its pinned digest.
func computeReference(ctx context.Context, pins pinFile) (reference, error) {
	pts := append(paperPoints(gscalar.Baseline, gscalar.GScalar), parallelPoints()...)
	res := map[string]gscalar.Result{}
	ref := reference{Failures: []string{}}
	for _, p := range pts {
		pr, err := p.run(ctx, false)
		if err != nil {
			return reference{}, fmt.Errorf("%s: %w", p.key(), err)
		}
		ref.Checked += 2
		if !p.ranAsAsked(pr.res) {
			ref.Failures = append(ref.Failures, fmt.Sprintf("%s ran on the %s loop with %d workers", p.key(), pr.res.ExecMode, pr.res.ResolvedWorkers))
		}
		if want, d := pins.Digests[p.key()], digest(pr.res); d != want {
			ref.Failures = append(ref.Failures, fmt.Sprintf("%s: result digest %.12s, pinned %.12s", p.key(), d, want))
		}
		res[p.key()] = pr.res
	}
	ref.PaperGapIPCW, ref.PaperGapIPC, _ = paperGaps(res)
	ref.RelaxedErr, _ = relaxedCycleErr(res)
	return ref, nil
}

func loadReference(path string) (reference, error) {
	var ref reference
	data, err := os.ReadFile(path)
	if err != nil {
		return ref, fmt.Errorf("accuracy reference: %w", err)
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("accuracy reference %s: %w", path, err)
	}
	return ref, nil
}

// pinFile is digests.json: the result digest of every point the workloads
// check against.
type pinFile struct {
	Digests map[string]string `json:"digests"`
}

func loadPins(path string) (pinFile, error) {
	var pf pinFile
	data, err := os.ReadFile(path)
	if err != nil {
		return pf, fmt.Errorf("pinned digests: %w", err)
	}
	if err := json.Unmarshal(data, &pf); err != nil {
		return pf, fmt.Errorf("pinned digests %s: %w", path, err)
	}
	return pf, nil
}

// pinPoints is every point checked against a pinned digest: all builtins on
// all architectures (paper-sweep, and serve-mixed's builtin and trace
// points), stall-bound's points, and the accuracy reference's parallel-loop
// points, each loop under its own digest.
func pinPoints() []point {
	return append(append(paperPoints(gscalar.AllArchs()...), stallPoints()...), parallelPoints()...)
}

// computePins simulates pinPoints and returns their digests.
func computePins(ctx context.Context) (pinFile, error) {
	pf := pinFile{Digests: map[string]string{}}
	for _, p := range pinPoints() {
		pr, err := p.run(ctx, false)
		if err != nil {
			return pf, fmt.Errorf("%s: %w", p.key(), err)
		}
		pf.Digests[p.key()] = digest(pr.res)
	}
	return pf, nil
}
