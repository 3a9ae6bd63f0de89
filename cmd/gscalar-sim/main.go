// Command gscalar-sim runs one workload under one architecture and prints
// the detailed simulation result: cycles, IPC, power and its component
// shares, scalar-eligibility decomposition, RF access classes, and
// compression statistics. A workload is either a Table 2 benchmark
// abbreviation, a captured execution trace ("trace:<path>"), or a calibrated
// synthetic kernel ("gen:div=0.3,sfu=0.2,..."; -list-workloads prints the
// dial schema).
//
// The chip configuration can be loaded from a JSON file (-config); flags
// given explicitly on the command line override the file. -dump-config
// prints the effective configuration as canonical JSON (suitable to feed
// back via -config) with its content hash. A SIGINT — or an expired
// -timeout — stops the simulation at its next lifecycle checkpoint and the
// partial statistics accumulated so far are still printed.
//
// Usage:
//
//	gscalar-sim -workload BP [-arch gscalar] [-scale 1] [-sms 15] [-workers N]
//	            [-config chip.json] [-dump-config] [-timeout 30s] [-progress N]
//	            [-metrics-out m.json] [-metrics-format json|csv] [-chrome-trace t.json]
//	            [-trace-out w.gstr] [-sample-stride N]
//	            [-cpuprofile sim.pprof] [-memprofile sim.mprof] [-list-workloads]
//
// With -metrics-out the run's final counters and sampled time series are
// written as JSON (or CSV with -metrics-format csv); -chrome-trace emits a
// Chrome trace-event file of per-SM activity, loadable in Perfetto. Both
// compose with -all, which bundles every benchmark into one file.
//
// -sample-stride N and -progress N both set the run's lifecycle checkpoint
// stride: every N simulated cycles the run takes a telemetry sample, checks
// for cancellation and, with -progress, reports progress to stderr. Given
// together they must name the same N. The default stride is 4096 cycles.
//
// -trace-out captures the run's simulation input (program, launch, initial
// memory) as a replayable trace, written atomically after a successful run
// under any schedule: replay it anywhere with -workload trace:<file>, under
// any architecture or chip-loop schedule, and the replayed result is
// byte-identical to a live run under that schedule. Capture takes a single
// workload (not -all).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"gscalar"
	"gscalar/internal/gen"
	"gscalar/internal/hostprof"
	"gscalar/internal/store"
)

func main() {
	var workload string
	flag.StringVar(&workload, "workload", "", "workload spec: a benchmark abbreviation, trace:<path>, or gen:<dials> (see -list-workloads)")
	archName := flag.String("arch", "gscalar", "architecture: "+strings.Join(gscalar.ArchNames(), ", "))
	scale := flag.Int("scale", 1, "workload scale factor")
	sms := flag.Int("sms", 0, "override number of SMs")
	list := flag.Bool("list-workloads", false, "list builtin workloads and the generator dials, and exit")
	breakdown := flag.Bool("breakdown", false, "print the per-component power breakdown")
	all := flag.Bool("all", false, "run every Table 2 benchmark and print a summary table")
	workers := flag.Int("workers", 0, "phased-schedule compute workers (0 = serial schedule, -1 = one per host core)")
	epoch := flag.Int("epoch", 0, "use the relaxed schedule with this epoch length in simulated cycles (deterministic, not bit-identical to serial; 0 = the per-cycle schedule -workers selects)")
	configPath := flag.String("config", "", "load the chip configuration from this JSON file (explicit flags override it)")
	dumpConfig := flag.Bool("dump-config", false, "print the effective configuration as canonical JSON (stdout) and its content hash (stderr), then exit")
	timeout := flag.Duration("timeout", 0, "stop simulating after this wall-clock duration; partial statistics are printed")
	progress := flag.Uint64("progress", 0, "report progress to stderr every N simulated cycles, the checkpoint stride (0 = off)")
	metricsOut := flag.String("metrics-out", "", "write final counters and the sampled time series to this file")
	metricsFormat := flag.String("metrics-format", "json", "metrics file format: json or csv")
	chromeTrace := flag.String("chrome-trace", "", "write a Chrome trace-event file (Perfetto-loadable) to this file")
	traceOut := flag.String("trace-out", "", "capture the run's input as a replayable trace at this path (replay with -workload trace:<path>)")
	sampleEvery := flag.Uint64("sample-stride", 0, "simulated cycles between lifecycle checkpoints, where telemetry samples (0 = the -progress value, or 4096)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile of the simulator to this file")
	flag.Parse()

	if *metricsFormat != "json" && *metricsFormat != "csv" {
		fmt.Fprintf(os.Stderr, "gscalar-sim: unknown -metrics-format %q (want json or csv)\n", *metricsFormat)
		os.Exit(1)
	}
	stride, err := checkpointStride(*sampleEvery, *progress)
	if err != nil {
		fatal(err)
	}

	prof, err = hostprof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer prof.Stop()

	if *list {
		for _, abbr := range gscalar.Workloads() {
			w, _ := gscalar.WorkloadByAbbr(abbr)
			fmt.Printf("%-4s %-11s %-8s %s\n", w.Abbr, w.Name, w.Suite, w.Desc)
		}
		fmt.Println("\ntrace:<path>  replay a trace captured with -trace-out")
		fmt.Println("gen:<dials>   calibrated synthetic kernel; dials (name=value, comma-separated):")
		for _, d := range gen.Schema() {
			ff := func(v float64) string {
				if d.Type == "int" {
					return strconv.FormatFloat(v, 'f', -1, 64)
				}
				return strconv.FormatFloat(v, 'g', -1, 64)
			}
			fmt.Printf("  %-5s %-6s [%s, %s] default %-4s %s\n",
				d.Name, d.Type, ff(d.Min), ff(d.Max), ff(d.Default), d.Desc)
		}
		return
	}

	cfg, err := loadConfig(*configPath)
	if err != nil {
		fatal(err)
	}
	// Apply only the flags the user actually set, so a -config file's values
	// are not clobbered by flag defaults.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sms":
			if *sms > 0 {
				cfg.NumSMs = *sms
			}
		case "workers":
			cfg.Workers = *workers
		case "epoch":
			cfg.EpochCycles = *epoch
		}
	})
	if *dumpConfig {
		cfg.Normalize()
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		b, err := cfg.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		fmt.Fprintln(os.Stderr, "config hash:", cfg.Hash())
		return
	}

	arch, ok := gscalar.ArchByName(*archName)
	if !ok {
		fatal(fmt.Errorf("unknown architecture %q (want one of %s)", *archName, strings.Join(gscalar.ArchNames(), ", ")))
	}

	// SIGINT (and -timeout) cancel the run at its next lifecycle checkpoint;
	// the partial result accumulated up to that cycle is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	s, err := gscalar.NewSession(cfg, arch)
	if err != nil {
		fatal(err)
	}
	s.Telemetry.Enabled = *metricsOut != "" || *chromeTrace != ""
	s.ObserverStride = stride
	if *all {
		if *traceOut != "" {
			fatal(fmt.Errorf("-trace-out captures a single run; it cannot be combined with -all"))
		}
		runAll(ctx, s, *scale, *metricsOut, *metricsFormat, *chromeTrace)
		return
	}
	if workload == "" {
		fatal(fmt.Errorf("missing -workload (use -list-workloads to see options)"))
	}

	s.Capture.Path = *traceOut
	if *progress > 0 {
		start := time.Now()
		s.Observer = func(p gscalar.Progress) {
			fmt.Fprintf(os.Stderr, "  cycle %12d  insts %12d  live SMs %2d  (%.1fs)\n",
				p.Cycle, p.WarpInsts, p.LiveSMs, time.Since(start).Seconds())
		}
	}
	res, err := s.RunWorkload(ctx, workload, *scale)
	if err != nil && !isCancel(err) {
		fatal(err)
	}
	if isCancel(err) {
		fmt.Fprintf(os.Stderr, "gscalar-sim: %v — printing partial statistics\n", err)
	}
	printResult(os.Stdout, workload, arch, *scale, cfg, res, *breakdown)
	// A cancelled run still flushes the partial series collected so far.
	if m := s.Metrics(); m != nil {
		if werr := writeTelemetry(gscalar.MetricsSet{m}, *metricsOut, *metricsFormat, *chromeTrace); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		prof.Stop()
		os.Exit(1)
	}
}

// checkpointStride resolves -sample-stride and -progress, which both name
// the lifecycle checkpoint stride (Session.ObserverStride). 0 means neither
// was given; two different non-zero values are an error.
func checkpointStride(sample, progress uint64) (uint64, error) {
	if sample != 0 && progress != 0 && sample != progress {
		return 0, fmt.Errorf("-sample-stride %d and -progress %d set the same checkpoint stride; give one of them, or equal values", sample, progress)
	}
	return max(sample, progress), nil
}

// writeTelemetry writes the collected metrics and trace artifacts for the
// flags that were given. A single-run set exports as one JSON object; a
// multi-run set (from -all) as {"runs": [...]}. Files land atomically
// (store.AtomicWrite: temp file + rename), so an export that fails
// mid-render leaves no truncated artifact behind — and never clobbers a
// previous good one.
func writeTelemetry(set gscalar.MetricsSet, metricsOut, format, chromeTrace string) error {
	if len(set) == 0 {
		return nil
	}
	write := func(path string, emit func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		return store.AtomicWrite(path, emit)
	}
	if err := write(metricsOut, func(w io.Writer) error {
		if format == "csv" {
			return set.WriteCSV(w)
		}
		if len(set) == 1 {
			return set[0].WriteJSON(w)
		}
		return set.WriteJSON(w)
	}); err != nil {
		return err
	}
	return write(chromeTrace, set.WriteTrace)
}

// loadConfig returns the default configuration, or the one decoded from the
// JSON file at path (unknown fields rejected, invariants validated).
func loadConfig(path string) (gscalar.Config, error) {
	if path == "" {
		return gscalar.DefaultConfig(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return gscalar.Config{}, err
	}
	cfg, err := gscalar.ConfigFromJSON(data)
	if err != nil {
		return gscalar.Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func printResult(w io.Writer, bench string, arch gscalar.Arch, scale int, cfg gscalar.Config, res gscalar.Result, breakdown bool) {
	fmt.Fprintf(w, "%s on %s (scale %d, %d SMs)\n", bench, arch, scale, cfg.NumSMs)
	fmt.Fprintf(w, "  cycles           %d\n", res.Cycles)
	fmt.Fprintf(w, "  warp insts       %d (+%d injected moves, %.2f%%)\n",
		res.WarpInsts, uint64(res.MoveOverhead*float64(res.WarpInsts)), 100*res.MoveOverhead)
	fmt.Fprintf(w, "  IPC              %.3f\n", res.IPC)
	fmt.Fprintf(w, "  power            %.1f W (exec %.1f%%, RF %.1f%%)\n",
		res.PowerW, 100*res.ExecPowerShare, 100*res.RFPowerShare)
	fmt.Fprintf(w, "  IPC/W            %.4f\n", res.IPCPerW)
	fmt.Fprintf(w, "  energy           %s (RF dynamic %s)\n", joules(res.EnergyJ), joules(res.RFDynamicJ))
	fmt.Fprintf(w, "  divergent        %.1f%% (value-scalar %.1f%%)\n",
		100*res.FracDivergent, 100*res.FracDivergentScalar)
	e := res.Eligibility
	fmt.Fprintf(w, "  scalar eligible  %.1f%% (ALU %.1f%%, SFU %.1f%%, mem %.1f%%, half %.1f%%, divergent %.1f%%)\n",
		100*e.Total(), 100*e.ALU, 100*e.SFU, 100*e.Mem, 100*e.Half, 100*e.Divergent)
	d := res.RFAccess
	fmt.Fprintf(w, "  RF reads         scalar %.1f%%, 3B %.1f%%, 2B %.1f%%, 1B %.1f%%, none %.1f%%, divergent %.1f%%\n",
		100*d.Scalar, 100*d.B3, 100*d.B2, 100*d.B1, 100*d.None, 100*d.Divergent)
	fmt.Fprintf(w, "  compression      %.2fx\n", res.CompressionRatio)
	fmt.Fprintf(w, "  L1 miss rate     %.1f%%; DRAM transactions %d\n", 100*res.L1MissRate, res.DRAMTransactions)
	if breakdown {
		fmt.Fprintln(w, "  power by component:")
		type kv struct {
			name string
			w    float64
		}
		var comps []kv
		for name, w := range res.PowerByComponent {
			comps = append(comps, kv{name, w})
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i].w > comps[j].w })
		for _, c := range comps {
			if c.w < 0.005 {
				continue
			}
			fmt.Fprintf(w, "    %-14s %7.2f W (%4.1f%%)\n", c.name, c.w, 100*c.w/res.PowerW)
		}
	}
}

// joules renders an energy to four significant digits in the largest of J,
// mJ and µJ that keeps it at or above one (nJ below that): a scale-1 run
// spends tens to hundreds of microjoules.
func joules(j float64) string {
	for _, u := range []struct {
		name  string
		scale float64
	}{{"J", 1}, {"mJ", 1e-3}, {"µJ", 1e-6}} {
		if j >= u.scale {
			return fmt.Sprintf("%.4g %s", j/u.scale, u.name)
		}
	}
	return fmt.Sprintf("%.4g nJ", j/1e-9)
}

// runAll prints a one-line summary per benchmark, running every workload
// through the one Session s so telemetry accumulates into a single set. A
// cancellation still flushes the in-flight benchmark's partial row — and the
// partial telemetry — before exiting.
func runAll(ctx context.Context, s *gscalar.Session, scale int, metricsOut, metricsFormat, chromeTrace string) {
	var set gscalar.MetricsSet
	flush := func() {
		if werr := writeTelemetry(set, metricsOut, metricsFormat, chromeTrace); werr != nil {
			fatal(werr)
		}
	}
	fmt.Printf("%-4s %8s %10s %7s %8s %9s %8s %7s\n",
		"sim", "cycles", "warpinsts", "IPC", "power(W)", "IPC/W", "eligible", "diverg")
	for _, abbr := range gscalar.Workloads() {
		res, err := s.RunWorkload(ctx, abbr, scale)
		if err != nil && !isCancel(err) {
			fatal(err)
		}
		if m := s.Metrics(); m != nil {
			set = append(set, m)
		}
		fmt.Printf("%-4s %8d %10d %7.2f %8.1f %9.5f %7.1f%% %6.1f%%\n",
			abbr, res.Cycles, res.WarpInsts, res.IPC, res.PowerW, res.IPCPerW,
			100*res.Eligibility.Total(), 100*res.FracDivergent)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gscalar-sim: %v — last row is partial\n", err)
			flush()
			prof.Stop()
			os.Exit(1)
		}
	}
	flush()
}

// prof is stopped on every exit path; fatal must flush it because os.Exit
// skips main's defer.
var prof *hostprof.Profiles

func fatal(err error) {
	prof.Stop()
	fmt.Fprintln(os.Stderr, "gscalar-sim:", err)
	os.Exit(1)
}
