// Package cli is the front end that gscalar-sim and gscalar-experiments
// share: the flags that mean the same in both, the chip configuration they
// load (-config, with the flags given on the command line applied over
// it), -dump-config, the run context (SIGINT and -timeout), host profiling
// of the simulator itself (-cpuprofile, -memprofile, as opposed to
// internal/profile, which profiles simulated kernels) and the telemetry
// export. Each command registers its own flags beside these and keeps only
// its own work.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"gscalar"
	"gscalar/internal/store"
)

// Command is one invocation of a simulator command: the values of the
// shared flags and the host profiles in progress. Every exit after
// StartProfiles goes through Stop (deferred in main), Exit or Fatal, so
// the profiles are always finished.
type Command struct {
	Scale         int    // -scale: workload scale factor
	MetricsFormat string // -metrics-format: json or csv

	name                   string
	configPath             string
	dumpConfig             bool
	sms, workers, epoch    int
	timeout                time.Duration
	cpuProfile, memProfile string

	cpuFile  *os.File // the running CPU profile
	heapPath string   // where Stop writes the heap profile
}

// New registers the shared flags on the process's command line for the
// command called name, which prefixes its error messages.
func New(name string) *Command {
	c := &Command{name: name}
	flag.IntVar(&c.Scale, "scale", 1, "workload scale factor")
	flag.IntVar(&c.sms, "sms", 0, "override the number of SMs (0 = the -config or Table 1 value)")
	flag.IntVar(&c.workers, "workers", 0, "phased-schedule compute workers per simulation (0 = serial schedule, -1 = one per host core)")
	flag.IntVar(&c.epoch, "epoch", 0, "use the relaxed schedule with this epoch length in simulated cycles (deterministic, not bit-identical to serial; 0 = the per-cycle schedule -workers selects)")
	flag.StringVar(&c.configPath, "config", "", "load the chip configuration from this JSON file (explicit flags override it)")
	flag.BoolVar(&c.dumpConfig, "dump-config", false, "print the effective configuration as canonical JSON (stdout) and its content hash (stderr), then exit")
	flag.DurationVar(&c.timeout, "timeout", 0, "stop simulating after this wall-clock duration")
	flag.StringVar(&c.MetricsFormat, "metrics-format", "json", "format of the -metrics-out files: json or csv")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the simulator to this file")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a heap profile of the simulator to this file")
	return c
}

// Parse parses the command line and checks the shared flags. A bad
// -metrics-format or a negative -sms exits here, before any profile or
// simulation starts.
func (c *Command) Parse() {
	flag.Parse()
	if c.MetricsFormat != "json" && c.MetricsFormat != "csv" {
		c.Fatal(fmt.Errorf("unknown -metrics-format %q (want json or csv)", c.MetricsFormat))
	}
	if c.sms < 0 {
		c.Fatal(fmt.Errorf("-sms %d: the SM count cannot be negative (0 keeps the -config or Table 1 value)", c.sms))
	}
}

// StartProfiles starts the -cpuprofile CPU profile and arms the -memprofile
// heap profile, which Stop writes.
func (c *Command) StartProfiles() {
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			c.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			c.Fatal(err)
		}
		c.cpuFile = f
	}
	c.heapPath = c.memProfile
}

// Stop finishes the profiles: it stops the CPU profile and writes the heap
// profile after a GC, so the snapshot holds live objects, not garbage. A
// profile it cannot write is reported on stderr. It is idempotent.
func (c *Command) Stop() {
	var err error
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		err = c.cpuFile.Close()
		c.cpuFile = nil
	}
	if c.heapPath != "" {
		f, herr := os.Create(c.heapPath)
		if herr == nil {
			runtime.GC()
			herr = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); herr == nil {
				herr = cerr
			}
		}
		err = errors.Join(err, herr)
		c.heapPath = ""
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, c.name+":", err)
	}
}

// Exit stops the profiles and exits with code: os.Exit skips main's
// deferred Stop.
func (c *Command) Exit(code int) {
	c.Stop()
	os.Exit(code)
}

// Fatal stops the profiles, prints err after the command's name on stderr
// and exits with status 1.
func (c *Command) Fatal(err error) {
	c.Stop()
	fmt.Fprintln(os.Stderr, c.name+":", err)
	os.Exit(1)
}

// Config returns the chip configuration the command runs: Table 1, or the
// -config file, with -sms, -workers and -epoch applied over it where they
// are given. With -dump-config it prints that configuration as canonical
// JSON on stdout and its content hash on stderr, and exits.
func (c *Command) Config() gscalar.Config {
	cfg := gscalar.DefaultConfig()
	if c.configPath != "" {
		data, err := os.ReadFile(c.configPath)
		if err != nil {
			c.Fatal(err)
		}
		if cfg, err = gscalar.ConfigFromJSON(data); err != nil {
			c.Fatal(fmt.Errorf("%s: %w", c.configPath, err))
		}
	}
	// Apply only the flags given on the command line, so a -config file's
	// values are not clobbered by flag defaults. -sms 0 keeps the file's
	// SM count.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sms":
			if c.sms > 0 {
				cfg.NumSMs = c.sms
			}
		case "workers":
			cfg.Workers = c.workers
		case "epoch":
			cfg.EpochCycles = c.epoch
		}
	})
	if !c.dumpConfig {
		return cfg
	}
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		c.Fatal(err)
	}
	b, err := cfg.JSON()
	if err != nil {
		c.Fatal(err)
	}
	fmt.Println(string(b))
	fmt.Fprintln(os.Stderr, "config hash:", cfg.Hash())
	c.Exit(0)
	return cfg
}

// Context returns the context the command simulates under: SIGINT cancels
// it, and so does an expired -timeout. A cancelled simulation stops at its
// next lifecycle checkpoint.
func (c *Command) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if c.timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	return ctx, func() { cancel(); stop() }
}

// WriteTelemetry writes set's metrics export in format (json or csv) to
// metricsPath and its Chrome trace-event file to tracePath; an empty path
// skips that file. One run exports as a single JSON object, several as
// {"runs": [...]}. Each file is written atomically (store.AtomicWrite), so
// an export that fails part-way leaves no truncated file behind and never
// replaces an earlier good one.
func WriteTelemetry(set gscalar.MetricsSet, format, metricsPath, tracePath string) error {
	if metricsPath != "" {
		emit := set.WriteJSON
		switch {
		case format == "csv":
			emit = set.WriteCSV
		case len(set) == 1:
			emit = set[0].WriteJSON
		}
		if err := store.AtomicWrite(metricsPath, emit); err != nil {
			return err
		}
	}
	if tracePath == "" {
		return nil
	}
	return store.AtomicWrite(tracePath, set.WriteTrace)
}
