package cli_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"gscalar"
)

// The front end is tested through the two commands that share it, built
// from this module: both must read the shared flags the same way.

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gscalar-cli-")
	if err == nil {
		binDir = dir
		out, berr := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
			"gscalar/cmd/gscalar-sim", "gscalar/cmd/gscalar-experiments").CombinedOutput()
		if berr != nil {
			err = fmt.Errorf("%v\n%s", berr, out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "building the commands:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs one command in dir and returns its stdout, stderr and exit code.
func run(t *testing.T, dir, cmd string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	c := exec.Command(filepath.Join(binDir, cmd), args...)
	c.Dir = dir
	var o, e bytes.Buffer
	c.Stdout, c.Stderr = &o, &e
	if err := c.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
	}
	return o.String(), e.String(), c.ProcessState.ExitCode()
}

// TestConfigFlagsOverFile dumps the effective configuration from both
// commands: a -config file's values survive unless their flags are given,
// an explicit -workers 0 or -epoch 0 overrides the file, -sms 0 keeps the
// file's SM count, and both commands print the same bytes.
func TestConfigFlagsOverFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "F"), []byte(`{"NumSMs":2,"Workers":2,"EpochCycles":64}`), 0o644); err != nil {
		t.Fatal(err)
	}
	def := gscalar.DefaultConfig()
	for _, tc := range []struct {
		args                []string
		sms, workers, epoch int
	}{
		{nil, def.NumSMs, def.Workers, def.EpochCycles},
		{[]string{"-config", "F"}, 2, 2, 64},
		{[]string{"-config", "F", "-workers", "0", "-epoch", "0"}, 2, 0, 0},
		{[]string{"-config", "F", "-sms", "0"}, 2, 2, 64},
		{[]string{"-config", "F", "-sms", "4", "-workers", "0", "-epoch", "0"}, 4, 0, 0},
		{[]string{"-sms", "4", "-workers", "3", "-epoch", "128"}, 4, 3, 128},
	} {
		args := append([]string{"-dump-config"}, tc.args...)
		simOut, simErr, simCode := run(t, dir, "gscalar-sim", args...)
		expOut, expErr, expCode := run(t, dir, "gscalar-experiments", args...)
		if simCode != 0 || expCode != 0 {
			t.Fatalf("%q: exit %d and %d\n%s%s", args, simCode, expCode, simErr, expErr)
		}
		if simOut != expOut || simErr != expErr {
			t.Errorf("%q: the commands disagree:\n%s%s\n%s%s", args, simOut, simErr, expOut, expErr)
		}
		cfg, err := gscalar.ConfigFromJSON([]byte(simOut))
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if cfg.NumSMs != tc.sms || cfg.Workers != tc.workers || cfg.EpochCycles != tc.epoch {
			t.Errorf("%q: NumSMs %d, Workers %d, EpochCycles %d; want %d, %d, %d",
				args, cfg.NumSMs, cfg.Workers, cfg.EpochCycles, tc.sms, tc.workers, tc.epoch)
		}
		if want := "config hash: " + cfg.Hash() + "\n"; simErr != want {
			t.Errorf("%q: stderr %q, want %q", args, simErr, want)
		}
	}
}

// TestNegativeSMsRejected gives each command a negative -sms, which no chip
// can have. It must exit 1 with one message naming the flag, not simulate
// or dump the -config or Table 1 SM count instead.
func TestNegativeSMsRejected(t *testing.T) {
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"gscalar-sim", []string{"-workload", "HS"}},
		{"gscalar-sim", []string{"-dump-config"}},
		{"gscalar-experiments", []string{"-exp", "fig9", "-bench", "HS"}},
		{"gscalar-experiments", []string{"-dump-config"}},
	} {
		args := append(tc.args, "-sms", "-4")
		stdout, stderr, code := run(t, t.TempDir(), tc.cmd, args...)
		want := tc.cmd + ": -sms -4: the SM count cannot be negative (0 keeps the -config or Table 1 value)\n"
		if code != 1 || stdout != "" || stderr != want {
			t.Errorf("%s %q: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q",
				tc.cmd, args, code, stdout, stderr, want)
		}
	}
}

// TestBadMetricsFormatStartsNothing gives each command an unknown
// -metrics-format with both profiles asked for. It must exit 1 with one
// message before it starts a profile, a simulation or a -dump-config.
func TestBadMetricsFormatStartsNothing(t *testing.T) {
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"gscalar-sim", []string{"-workload", "HS"}},
		{"gscalar-sim", []string{"-dump-config"}},
		{"gscalar-experiments", []string{"-exp", "fig9", "-bench", "HS"}},
		{"gscalar-experiments", []string{"-dump-config"}},
	} {
		dir := t.TempDir()
		args := append(tc.args, "-metrics-format", "xml", "-cpuprofile", "cpu.pprof", "-memprofile", "heap.pprof")
		stdout, stderr, code := run(t, dir, tc.cmd, args...)
		want := tc.cmd + `: unknown -metrics-format "xml" (want json or csv)` + "\n"
		if code != 1 || stdout != "" || stderr != want {
			t.Errorf("%s %q: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q",
				tc.cmd, args, code, stdout, stderr, want)
		}
		for _, f := range []string{"cpu.pprof", "heap.pprof"} {
			if _, err := os.Stat(filepath.Join(dir, f)); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("%s %q wrote %s", tc.cmd, args, f)
			}
		}
	}
}

// TestCommandsExportAlike runs HS through both commands with both profiles
// and the telemetry exports on. The profiles must be non-empty, and the
// experiment point's metrics and Chrome-trace files must equal
// gscalar-sim's single-run files, in JSON and in CSV.
func TestCommandsExportAlike(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		dir := t.TempDir()
		profiles := []string{"-cpuprofile", "cpu.pprof", "-memprofile", "heap.pprof"}
		common := append([]string{"-sms", "1", "-metrics-format", format}, profiles...)
		if _, stderr, code := run(t, dir, "gscalar-sim", append(common, "-workload", "HS",
			"-metrics-out", "m."+format, "-chrome-trace", "t.json")...); code != 0 {
			t.Fatalf("gscalar-sim: exit %d\n%s", code, stderr)
		}
		for _, f := range []string{"cpu.pprof", "heap.pprof"} {
			if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
				t.Errorf("gscalar-sim %s: %v (empty or missing)", f, err)
			}
			os.Remove(filepath.Join(dir, f))
		}
		if _, stderr, code := run(t, dir, "gscalar-experiments", append(common, "-exp", "fig9", "-bench", "HS",
			"-metrics-out", "M", "-chrome-trace", "T")...); code != 0 {
			t.Fatalf("gscalar-experiments: exit %d\n%s", code, stderr)
		}
		for _, f := range []string{"cpu.pprof", "heap.pprof"} {
			if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
				t.Errorf("gscalar-experiments %s: %v (empty or missing)", f, err)
			}
		}
		for sim, exp := range map[string]string{
			"m." + format: filepath.Join("M", "gscalar_HS."+format),
			"t.json":      filepath.Join("T", "gscalar_HS.trace.json"),
		} {
			a, aerr := os.ReadFile(filepath.Join(dir, sim))
			b, berr := os.ReadFile(filepath.Join(dir, exp))
			if aerr != nil || berr != nil || len(a) == 0 || !bytes.Equal(a, b) {
				t.Errorf("%s: gscalar-sim's %s (%v) and gscalar-experiments' %s (%v) differ", format, sim, aerr, exp, berr)
			}
		}
	}
}
