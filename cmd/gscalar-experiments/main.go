// Command gscalar-experiments regenerates the tables and figures of the
// paper's evaluation section.
//
// The chip configuration can be loaded from a JSON file (-config); flags
// given explicitly on the command line override the file, and -dump-config
// prints the effective configuration with its content hash. A SIGINT — or
// an expired -timeout — cancels the in-flight simulations at their next
// lifecycle checkpoint (with -parallel, the whole fan-out stops).
//
// Usage (-h lists the experiment names):
//
//	gscalar-experiments [-exp all|NAME] [-csv DIR]
//	                    [-scale N] [-sms N] [-bench BP,LBM,...] [-parallel N] [-workers N]
//	                    [-config chip.json] [-dump-config] [-timeout 10m]
//	                    [-metrics-out DIR] [-metrics-format json|csv] [-chrome-trace DIR]
//	                    [-trace-out DIR] [-cpuprofile exp.pprof] [-memprofile exp.mprof]
//
// With -metrics-out (and/or -chrome-trace) every freshly simulated
// (architecture, workload) point of the point memo additionally writes its
// telemetry — final counters plus the sampled time series, and a
// Perfetto-loadable Chrome trace — into the given directory as
// <arch>_<workload> files. The memo points include the ALU-scalar and
// G-Scalar points that the scalar-bank and scheduler ablations read. A
// point answered from the memo, or joined while another call simulated it,
// produces no new telemetry and therefore no files, and neither do the runs
// outside the memo (the ablations' custom architectures, Figure 10's
// warp-64 chip and the width sweep).
//
// -trace-out DIR captures every freshly simulated memo point's simulation
// input as a replayable trace (<arch>_<workload>.gstr, written atomically
// on success, under any schedule). A captured trace replays through
// gscalar-sim -workload trace:<file> — or back through this command, since
// -bench accepts trace:<path> and gen:<dials> specs alongside benchmark
// abbreviations (a gen spec's own commas are kept with it).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"

	"gscalar"
	"gscalar/internal/experiments"
	"gscalar/internal/hostprof"
	"gscalar/internal/store"
	"gscalar/internal/workloads"
)

func main() {
	names := experiments.Names()
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gscalar-experiments [-exp all|%s] [flags]\n", strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(names, ", "))
	scale := flag.Int("scale", 1, "workload scale factor")
	sms := flag.Int("sms", 0, "override number of SMs (0 = Table 1 value)")
	bench := flag.String("bench", "", "comma-separated workload subset: abbreviations, trace:<path> and/or gen:<dials> specs (default: all)")
	csvDir := flag.String("csv", "", "also write machine-readable CSV files into this directory")
	metricsOut := flag.String("metrics-out", "", "write per-point telemetry (counters + time series) into this directory")
	metricsFormat := flag.String("metrics-format", "json", "telemetry file format: json or csv")
	chromeTrace := flag.String("chrome-trace", "", "write per-point Chrome trace-event files into this directory")
	traceOut := flag.String("trace-out", "", "capture every freshly simulated point's input as a replayable trace (.gstr) in this directory")
	parallel := flag.Int("parallel", 1, "simulate up to N (arch, workload) points concurrently; output is identical to -parallel 1")
	workers := flag.Int("workers", 0, "phased-schedule compute workers per simulation (0 = serial schedule, -1 = one per host core)")
	epoch := flag.Int("epoch", 0, "use the relaxed schedule with this epoch length in simulated cycles (deterministic, not bit-identical to serial; 0 = the per-cycle schedule -workers selects)")
	configPath := flag.String("config", "", "load the chip configuration from this JSON file (explicit flags override it)")
	dumpConfig := flag.Bool("dump-config", false, "print the effective configuration as canonical JSON (stdout) and its content hash (stderr), then exit")
	timeout := flag.Duration("timeout", 0, "stop simulating after this wall-clock duration")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile of the simulator to this file")
	flag.Parse()

	prof, err := hostprof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gscalar-experiments:", err)
		os.Exit(1)
	}
	defer prof.Stop()

	fail := func(err error) {
		prof.Stop() // os.Exit skips the defer
		fmt.Fprintln(os.Stderr, "gscalar-experiments:", err)
		os.Exit(1)
	}

	cfg := gscalar.DefaultConfig()
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fail(err)
		}
		cfg, err = gscalar.ConfigFromJSON(data)
		if err != nil {
			fail(fmt.Errorf("%s: %w", *configPath, err))
		}
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
			fail(err)
		}
		b, err := cfg.JSON()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(b))
		fmt.Fprintln(os.Stderr, "config hash:", cfg.Hash())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *metricsFormat != "json" && *metricsFormat != "csv" {
		fail(fmt.Errorf("unknown -metrics-format %q (want json or csv)", *metricsFormat))
	}

	opts := experiments.Options{Config: cfg, Scale: *scale, CaptureDir: *traceOut}
	if *bench != "" {
		opts.Workloads = workloads.SplitList(*bench)
	}
	if *metricsOut != "" || *chromeTrace != "" {
		sink, err := newMetricsSink(*metricsOut, *metricsFormat, *chromeTrace)
		if err != nil {
			fail(err)
		}
		opts.OnMetrics = sink.write
		defer func() {
			if err := sink.err(); err != nil {
				fail(err)
			}
		}()
	}
	suite := experiments.NewSuiteContext(ctx, opts)
	exps, err := experiments.Select(strings.ToLower(*exp))
	if err != nil {
		fail(err)
	}

	// With -parallel N the selected experiments' memo points run
	// concurrently up front, filling the process-wide point memo (a memory
	// store.Store); the experiments below then render serially from it, so
	// the printed output is byte-identical to a serial run (make expdet
	// checks this). The fan-out is fail-fast: the first failure (or SIGINT)
	// cancels the sibling simulations.
	if *parallel > 1 {
		if err := suite.PrewarmContext(ctx, suite.Points(exps), *parallel); err != nil {
			fail(err)
		}
	}

	for _, e := range exps {
		text, csv, err := e.Render(suite)
		if err != nil {
			fail(err)
		}
		fmt.Println(text)
		if csv != "" && *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fail(err)
			}
			err := store.AtomicWrite(filepath.Join(*csvDir, e.Name+".csv"), func(w io.Writer) error {
				_, err := io.WriteString(w, csv)
				return err
			})
			if err != nil {
				fail(err)
			}
		}
	}
}

// metricsSink persists one telemetry file (and/or one trace file) per
// freshly simulated experiment point. Under -parallel the suite calls
// OnMetrics concurrently, so writes are serialised by a mutex; the first
// write error is surfaced once the suite finishes rather than aborting the
// sweep mid-flight.
type metricsSink struct {
	metricsDir, format, traceDir string

	mu       sync.Mutex
	firstErr error
}

func newMetricsSink(metricsDir, format, traceDir string) (*metricsSink, error) {
	for _, dir := range []string{metricsDir, traceDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
	}
	return &metricsSink{metricsDir: metricsDir, format: format, traceDir: traceDir}, nil
}

// write is the experiments.Options.OnMetrics hook. Each file is written
// atomically (temp file + rename), so an export that fails mid-render
// leaves no truncated file behind.
func (s *metricsSink) write(arch gscalar.Arch, abbr string, m *gscalar.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	point := experiments.PointFileName(arch, abbr)
	record := func(err error) {
		if err != nil && s.firstErr == nil {
			s.firstErr = err
		}
	}
	if s.metricsDir != "" {
		record(store.AtomicWrite(filepath.Join(s.metricsDir, point+"."+s.format), func(w io.Writer) error {
			if s.format == "csv" {
				return m.WriteCSV(w)
			}
			return m.WriteJSON(w)
		}))
	}
	if s.traceDir != "" {
		record(store.AtomicWrite(filepath.Join(s.traceDir, point+".trace.json"), m.WriteTrace))
	}
}

// err returns the first write failure, if any.
func (s *metricsSink) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}
