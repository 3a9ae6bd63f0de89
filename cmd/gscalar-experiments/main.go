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
// With -metrics-out (and/or -chrome-trace) every freshly simulated point of
// the point memo additionally writes its telemetry — final counters plus
// the sampled time series, and a Perfetto-loadable Chrome trace — into the
// given directory: the suite hands each fresh experiments.Point and its
// metrics to the Options.OnMetrics hook, which names the files
// <arch>_<workload> with Point.FileName. The memo points include the
// ALU-scalar and G-Scalar points that the scalar-bank and scheduler
// ablations read. A point answered from the memo, or joined while another
// call simulated it, produces no new telemetry and therefore no files, and
// neither do the runs outside the memo (the ablations' custom
// architectures, Figure 10's column at a warp size other than the chip's,
// and the width sweep).
//
// -trace-out DIR captures every freshly simulated memo point's simulation
// input as a replayable trace (<arch>_<workload>.gstr, written atomically
// on success, under any schedule). A captured trace replays through
// gscalar-sim -workload trace:<file> — or back through this command, since
// -bench accepts trace:<path> and gen:<dials> specs alongside benchmark
// abbreviations (a gen spec's own commas are kept with it).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"gscalar"
	"gscalar/internal/cli"
	"gscalar/internal/experiments"
	"gscalar/internal/store"
	"gscalar/internal/workloads"
)

func main() {
	cmd := cli.New("gscalar-experiments")
	names := experiments.Names()
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gscalar-experiments [-exp all|%s] [flags]\n", strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(names, ", "))
	bench := flag.String("bench", "", "comma-separated workload subset: abbreviations, trace:<path> and/or gen:<dials> specs (default: all)")
	csvDir := flag.String("csv", "", "also write machine-readable CSV files into this directory")
	metricsOut := flag.String("metrics-out", "", "write per-point telemetry (counters + time series) into this directory")
	chromeTrace := flag.String("chrome-trace", "", "write per-point Chrome trace-event files into this directory")
	traceOut := flag.String("trace-out", "", "capture every freshly simulated point's input as a replayable trace (.gstr) in this directory")
	parallel := flag.Int("parallel", 1, "simulate up to N (arch, workload) points concurrently; output is identical to -parallel 1")
	cmd.Parse()
	cmd.StartProfiles()
	defer cmd.Stop()

	opts := experiments.Options{Config: cmd.Config(), Scale: cmd.Scale, CaptureDir: *traceOut}
	if *bench != "" {
		opts.Workloads = workloads.SplitList(*bench)
	}
	if *metricsOut != "" || *chromeTrace != "" {
		sink, err := newMetricsSink(*metricsOut, cmd.MetricsFormat, *chromeTrace)
		if err != nil {
			cmd.Fatal(err)
		}
		opts.OnMetrics = sink.write
		defer func() {
			if err := sink.err(); err != nil {
				cmd.Fatal(err)
			}
		}()
	}
	ctx, stop := cmd.Context()
	defer stop()
	suite := experiments.NewSuiteContext(ctx, opts)
	exps, err := experiments.Select(strings.ToLower(*exp))
	if err != nil {
		cmd.Fatal(err)
	}

	// With -parallel N the selected experiments' memo points run
	// concurrently up front, filling the process-wide point memo (a memory
	// store.Store); the experiments below then render serially from it, so
	// the printed output is byte-identical to a serial run (make expdet
	// checks this). The fan-out is fail-fast: the first failure (or SIGINT)
	// cancels the sibling simulations.
	if *parallel > 1 {
		if err := suite.PrewarmContext(ctx, suite.Points(exps), *parallel); err != nil {
			cmd.Fatal(err)
		}
	}

	for _, e := range exps {
		text, csv, err := e.Render(suite)
		if err != nil {
			cmd.Fatal(err)
		}
		fmt.Println(text)
		if csv != "" && *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				cmd.Fatal(err)
			}
			err := store.AtomicWrite(filepath.Join(*csvDir, e.Name+".csv"), func(w io.Writer) error {
				_, err := io.WriteString(w, csv)
				return err
			})
			if err != nil {
				cmd.Fatal(err)
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

// write is the experiments.Options.OnMetrics hook: it exports one point's
// telemetry as gscalar-sim exports a single run, named with p.FileName.
func (s *metricsSink) write(p experiments.Point, m *gscalar.Metrics) {
	point := p.FileName()
	var metricsPath, tracePath string
	if s.metricsDir != "" {
		metricsPath = filepath.Join(s.metricsDir, point+"."+s.format)
	}
	if s.traceDir != "" {
		tracePath = filepath.Join(s.traceDir, point+".trace.json")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := cli.WriteTelemetry(gscalar.MetricsSet{m}, s.format, metricsPath, tracePath); err != nil && s.firstErr == nil {
		s.firstErr = err
	}
}

// err returns the first write failure, if any.
func (s *metricsSink) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}
