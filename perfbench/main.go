// Command perfbench is the repository benchmark. It drives the simulator
// from outside — through the public gscalar.Session API, and through the
// serve and store layers over loopback HTTP — on four named workloads,
// checks every simulated result against pinned digests, and prints one JSON
// result line. README.md in this directory describes the workloads, the
// metrics and the layer attribution; run.py builds this program and runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"gscalar"
)

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so a few slow set-ups do not move it. Each set-up starts from a
// collected heap, so that a collection owed by the one before does not land
// in it.
const setupRepeats = 21

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	pins      string
	reference string
	tmp       string
	out       string
}

func main() {
	var o options
	var mode string
	var trace int
	flag.StringVar(&mode, "mode", "run", "run: measure one workload; reference: write the accuracy reference to -out; pin: write result digests to -out")
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	flag.StringVar(&o.pins, "pins", "perfbench/digests.json", "pinned result digests")
	flag.StringVar(&o.reference, "reference", "", "accuracy reference file written by -mode reference")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory for stores and traces")
	flag.StringVar(&o.out, "out", "", "output file of the reference and pin modes")
	flag.Parse()
	o.traced = trace == 1
	ctx := context.Background()
	var err error
	switch mode {
	case "run":
		err = runMode(ctx, o)
	case "reference":
		err = writeJSONFile(o.out, func() (any, error) {
			pins, err := loadPins(o.pins)
			if err != nil {
				return nil, err
			}
			return computeReference(ctx, pins)
		})
	case "pin":
		err = writeJSONFile(o.out, func() (any, error) { return computePins(ctx) })
	default:
		err = fmt.Errorf("unknown -mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func writeJSONFile(path string, compute func() (any, error)) error {
	if path == "" {
		return errors.New("-out is required")
	}
	v, err := compute()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// workload is one named traffic mix. run performs the set-up
// (setupRepeats times), the timed phase and, in a traced run, the span and
// character checks, recording everything on r.
type workload struct {
	name string
	run  func(r *run) error
}

var workloadList = []workload{
	{"paper-sweep", runPaperSweep},
	{"stall-bound", runStallBound},
	{"serve-mixed", runServeMixed},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}

// phase accumulates the repetitions of one half of a run: all of an
// untraced run, or the untraced or the profiled half of a traced run.
type phase struct {
	reps   int
	wall   time.Duration
	cpu    float64   // process CPU seconds
	insts  uint64    // warp instructions simulated
	cycles uint64    // simulated cycles
	lat    []float64 // every point or request of every repetition, ms
}

// repStat is what one repetition of a workload's schedule did.
type repStat struct {
	insts, cycles uint64
	lat           []float64
	probe         time.Duration // host probe time, left out of the repetition's time
}

func (s *repStat) add(ms float64, insts, cycles uint64) {
	s.lat = append(s.lat, ms)
	s.insts += insts
	s.cycles += cycles
}

func (p *phase) add(d time.Duration, cpu float64, st repStat) {
	p.reps++
	p.wall += d
	p.cpu += cpu
	p.insts += st.insts
	p.cycles += st.cycles
	p.lat = append(p.lat, st.lat...)
}

func (p phase) minstPerS() float64 { return ratio(float64(p.insts), p.wall.Seconds()) / 1e6 }

// run is the state of one benchmark invocation.
type run struct {
	ctx  context.Context
	o    options
	pins pinFile
	ref  reference
	tmp  string

	setupS []float64

	attempted, failed int
	failures          []string
	seen              map[string]string // point key -> digest of its first result

	untraced, profiled phase
	// probe times the host between the timed phase's operations,
	// setupProbe after each set-up.
	probe, setupProbe *hostProbe
	// p50SleepBound marks a workload whose median operation is mostly a
	// fixed sleep, which a slower host does not stretch, so req_p50_ms is
	// not scaled by the host's slowdown.
	p50SleepBound bool
	rt            runtimeCounters // over the whole timed phase
	layers        map[string]float64
	counts        map[string]float64 // simulated counts of one repetition
	buildMs       []float64
	serve         serveCounters
	extra         map[string]float64 // reported in the report line only
}

// fail records a failed operation or check; the first few are kept for the
// report.
func (r *run) fail(what, format string, args ...any) {
	r.failed++
	msg := what + ": " + fmt.Sprintf(format, args...)
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "FAIL", msg)
}

// expect is one run-level check.
func (r *run) expect(ok bool, what, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(what, format, args...)
	}
}

// checkDigest compares a result with its pinned digest (pin == "" when it
// has none) and with every earlier result of the same key.
func (r *run) checkDigest(key, pin string, res gscalar.Result) {
	d := digest(res)
	if pin != "" {
		want, ok := r.pins.Digests[pin]
		switch {
		case !ok:
			r.fail(key, "no pinned digest %s", pin)
		case d != want:
			r.fail(key, "result digest %.12s, pinned %.12s", d, want)
		}
	}
	if prev, ok := r.seen[key]; !ok {
		r.seen[key] = d
	} else if prev != d {
		r.fail(key, "result differs from an earlier run of the same point")
	}
}

// check verifies one directly simulated point: its digest, and that it ran
// on the loop and worker count it asked for.
func (r *run) check(pr pointResult) {
	p := pr.p
	r.checkDigest(p.key(), p.key(), pr.res)
	if !p.ranAsAsked(pr.res) {
		r.fail(p.key(), "ran on the %s loop with %d workers", pr.res.ExecMode, pr.res.ResolvedWorkers)
	}
}

// setupDone records the time of one set-up repetition, started at t0, and
// in an untraced run probes the host after it: the host's speed changes from
// second to second, so setup_s is normalised by probes taken beside it.
func (r *run) setupDone(t0 time.Time) {
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	if !r.o.traced {
		r.setupProbe.sample()
	}
}

// betweenOps runs the host probe between two timed operations of an
// untraced run and charges its time to st, so the repetition's time leaves it
// out. A traced run measures layer time, which is not normalised.
func (r *run) betweenOps(st *repStat) {
	if !r.o.traced {
		st.probe += r.probe.sample()
	}
}

// timedLoop runs repetitions of a workload's schedule until the timed phase
// has lasted -seconds; a repetition is never cut short, so every run
// measures whole repetitions. In a traced run the repetitions go untraced,
// profiled, profiled, untraced, and so on, ending after a whole group of
// four, so both halves measure the same work and their ratio is the tracing
// overhead. Plain alternation would not: serve-mixed's rounds rotate
// through their cold points with an even period, so odd and even rounds
// simulate different kernels.
func (r *run) timedLoop(rep func(i int, profiled bool) repStat) error {
	start := time.Now()
	rt0 := readRuntime()
	for i := 0; ; i++ {
		profiled := r.o.traced && (i%4 == 1 || i%4 == 2)
		var prof bytes.Buffer
		cpu0 := cpuSeconds()
		if profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		t0 := time.Now()
		st := rep(i, profiled)
		d := time.Since(t0) - st.probe
		if profiled {
			pprof.StopCPUProfile()
			r.profiled.add(d, cpuSeconds()-cpu0, st)
			if err := addLayerSeconds(r.layers, prof.Bytes()); err != nil {
				return err
			}
		} else {
			r.untraced.add(d, cpuSeconds()-cpu0, st)
		}
		if time.Since(start).Seconds() >= r.o.seconds && (!r.o.traced || i%4 == 3) {
			break
		}
	}
	r.rt = readRuntime().minus(rt0)
	return nil
}

func runMode(ctx context.Context, o options) error {
	var w *workload
	for i := range workloadList {
		if workloadList[i].name == o.workload {
			w = &workloadList[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	spec, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	pins, err := loadPins(o.pins)
	if err != nil {
		return err
	}
	ref, err := loadReference(o.reference)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(o.tmp, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	r := &run{
		ctx: ctx, o: o, pins: pins, ref: ref, tmp: tmp,
		seen:       map[string]string{},
		probe:      &hostProbe{},
		setupProbe: &hostProbe{},
		layers:     map[string]float64{},
		extra:      map[string]float64{},
	}
	r.attempted += ref.Checked
	for _, f := range ref.Failures {
		r.fail("accuracy reference", "%s", f)
	}
	if err := w.run(r); err != nil {
		return err
	}
	var m map[string]metric
	want := spec.EndToEnd
	if o.traced {
		m, want = r.perLayer(), spec.PerLayer
	} else {
		m = r.endToEnd()
	}
	if err := matchSpec(m, want); err != nil {
		return err
	}
	r.extra["timed_wall_s"] = r.untraced.wall.Seconds()
	r.extra["timed_cpu_s"] = r.untraced.cpu

	report := map[string]any{
		"workload":    w.name,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.traced,
		"provenance":  newProvenance(),
		"repetitions": r.untraced.reps + r.profiled.reps,
		"samples":     len(r.untraced.lat) + len(r.profiled.lat),
		"failures":    r.failures,
		"metrics":     m,
		"extra":       r.extra,
	}
	if w.name == "serve-mixed" {
		report["poll_interval_ms"] = float64(pollInterval) / float64(time.Millisecond)
	}
	rb, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println("perfbench report " + string(rb))
	if r.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd assembles the untraced run's metrics. Host times and rates are
// scaled by the host's slowdown (hostspeed.go); the report line keeps the
// values as measured under raw.<name>.
func (r *run) endToEnd() map[string]metric {
	u := r.untraced
	secs := u.wall.Seconds()
	f, fSetup := r.probe.slowdown(), r.setupProbe.slowdown()
	r.extra["host.slowdown"] = f
	r.extra["host.setup_slowdown"] = fSetup
	m := map[string]metric{
		"alloc_mb":              {float64(r.rt.allocBytes) / float64(u.reps) / 1e6, "MB"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"paper_gap_ipcw_pct":    {r.ref.PaperGapIPCW, "%"},
		"paper_gap_ipc_pct":     {r.ref.PaperGapIPC, "%"},
		"relaxed_cycle_err_pct": {r.ref.RelaxedErr, "%"},
	}
	scaled := func(name string, v float64, unit string, by float64) {
		r.extra["raw."+name] = v
		m[name] = metric{v * by, unit}
	}
	scaled("setup_s", median(r.setupS), "s", 1/fSetup)
	scaled("sim_minst_per_s", u.minstPerS(), "Minst/s", f)
	scaled("req_per_s", ratio(float64(len(u.lat)), secs), "points/s", f)
	scaled("req_p99_ms", percentile(u.lat, 0.99), "ms", 1/f)
	if r.p50SleepBound {
		scaled("req_p50_ms", percentile(u.lat, 0.50), "ms", 1)
	} else {
		scaled("req_p50_ms", percentile(u.lat, 0.50), "ms", 1/f)
	}
	return m
}

// Buckets of the CPU profile: reported in the result line, and reported in
// the report line only (the serve-side layers, which only serve-mixed
// exercises, so that no time metric reads a constant zero elsewhere).
var (
	reportedLayers = []string{"sm", "warp", "core", "regfile", "mem", "power", "gpu", "kernel", "build", "runtime.copy", "runtime.gc", "runtime.sched", "other"}
	serveLayers    = []string{"trace", "store", "serve"}
)

func layerMetricName(l string) string {
	if strings.HasPrefix(l, "runtime.") {
		return l + "_s"
	}
	return l + ".self_s"
}

var countUnits = map[string]string{
	"sim.cycles": "cycles", "sm.warp_insts": "count", "sm.ipc": "inst/cycle",
	"sm.stall_scoreboard": "count", "sm.stall_unit": "count", "sm.stall_collector": "count",
	"sm.injected_moves": "count", "rf.main_grants": "count", "rf.bvr_grants": "count",
	"rf.scalarbank_grants": "count", "mem.l1_accesses": "count", "mem.l1_hit_ratio": "ratio",
	"mem.l2_accesses": "count", "mem.l2_hit_ratio": "ratio", "mem.dram_tx": "count",
	"mem.mshr_merges": "count",
}

// perLayer assembles the traced run's metrics. Layer seconds are CPU
// seconds per profiled repetition; simulated counts cover one repetition.
func (r *run) perLayer() map[string]metric {
	p := r.profiled
	reps := float64(p.reps)
	allReps := float64(r.untraced.reps + p.reps)
	m := map[string]metric{}
	var total float64
	for _, l := range append(append([]string(nil), reportedLayers...), serveLayers...) {
		total += r.layers[l]
	}
	for _, l := range reportedLayers {
		m[layerMetricName(l)] = metric{r.layers[l] / reps, "s"}
	}
	for _, l := range serveLayers {
		r.extra[layerMetricName(l)] = r.layers[l] / reps
	}
	m["sm.ns_per_cycle"] = metric{ratio(r.layers["sm"]*1e9, float64(p.cycles)), "ns"}
	m["warp.ns_per_winst"] = metric{ratio(r.layers["warp"]*1e9, float64(p.insts)), "ns"}
	m["core.ns_per_winst"] = metric{ratio(r.layers["core"]*1e9, float64(p.insts)), "ns"}
	for name, unit := range countUnits {
		m[name] = metric{r.counts[name], unit}
	}
	m["point.run_ms.p50"] = metric{percentile(p.lat, 0.50), "ms"}
	m["point.run_ms.p99"] = metric{percentile(p.lat, 0.99), "ms"}
	m["build.ms"] = metric{median(r.buildMs), "ms"}
	m["serve.simulations"] = metric{float64(r.serve.Simulations), "count"}
	m["serve.store_hits"] = metric{float64(r.serve.StoreHits), "count"}
	m["serve.joins"] = metric{float64(r.serve.Joins), "count"}
	m["serve.hit_ratio"] = metric{r.serve.hitRatio(), "ratio"}
	m["serve.polls_per_req"] = metric{r.serve.pollsPerRequest(), "ratio"}
	m["gc.cycles"] = metric{float64(r.rt.gcCycles) / allReps, "count"}
	m["alloc.objects"] = metric{float64(r.rt.allocObjects) / allReps, "count"}
	m["sim_minst_per_s.untraced"] = metric{r.untraced.minstPerS(), "Minst/s"}
	m["sim_minst_per_s.traced"] = metric{p.minstPerS(), "Minst/s"}
	m["profile.cpu_ratio"] = metric{ratio(total, r.profiled.cpu), "ratio"}
	return m
}

// share is the fraction of the profiled CPU time spent in the given layers.
func (r *run) share(layers ...string) float64 {
	var in, total float64
	for _, v := range r.layers {
		total += v
	}
	for _, l := range layers {
		in += r.layers[l]
	}
	return ratio(in, total)
}

// checkReconciliation asserts the profile's layer seconds account for the
// process CPU time of the profiled repetitions within 10%.
func (r *run) checkReconciliation() {
	var total float64
	for _, v := range r.layers {
		total += v
	}
	q := ratio(total, r.profiled.cpu)
	r.expect(q >= 0.9 && q <= 1.1, "reconciliation",
		"profile layers sum to %.3f s, process CPU time was %.3f s", total, r.profiled.cpu)
}

// benchSpec is the part of BENCHMARK.json the program checks its output
// against, so the emitted metric names and units cannot drift from it.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func matchSpec(m map[string]metric, want []specMetric) error {
	var problems []string
	for _, w := range want {
		got, ok := m[w.Name]
		switch {
		case !ok:
			problems = append(problems, w.Name+" not measured")
		case got.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, BENCHMARK.json says %s", w.Name, got.Unit, w.Unit))
		}
	}
	if len(m) != len(want) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		problems = append(problems, fmt.Sprintf("measured %d metrics, BENCHMARK.json lists %d: %s", len(m), len(want), strings.Join(names, " ")))
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}
