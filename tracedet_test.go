package gscalar_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gscalar"
	"gscalar/internal/trace"
)

// schedule is one chip-loop schedule: the ExecMode a run under it reports
// and the Config fields that select it.
type schedule struct {
	mode        string
	workers     int
	epochCycles int
}

// schedules lists the three schedules of the chip loop; trace capture and
// replay must work under each.
var schedules = []schedule{
	{"serial", 0, 0},
	{"phased", 4, 0},
	{"relaxed", 2, 64},
}

func (sc schedule) config() gscalar.Config {
	cfg := gscalar.DefaultConfig()
	cfg.Workers = sc.workers
	cfg.EpochCycles = sc.epochCycles
	return cfg
}

// captureWorkload runs abbr under arch and schedule sc with trace capture
// enabled and returns the capture run's Result plus the trace path.
func captureWorkload(t *testing.T, arch gscalar.Arch, sc schedule, abbr string, scale int) (gscalar.Result, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), abbr+".gstr")
	s, err := gscalar.NewSession(sc.config(), arch)
	if err != nil {
		t.Fatal(err)
	}
	s.Capture.Path = path
	res, err := s.RunWorkload(context.Background(), abbr, scale)
	if err != nil {
		t.Fatalf("capture %s on %s (%s): %v", abbr, arch, sc.mode, err)
	}
	return res, path
}

// resultJSON marshals a Result with execution metadata stripped, so runs
// from different chip loops compare on what they simulated.
func resultJSON(t *testing.T, r gscalar.Result) string {
	t.Helper()
	b, err := json.Marshal(stripExecMeta(r))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricsJSON renders a telemetry blob with the identity fields that
// legitimately differ between a live and a replayed run blanked: the
// workload label (abbr vs trace:<path>) and the execution metadata. All
// counters and the full time series must still match byte for byte.
func metricsJSON(t *testing.T, m *gscalar.Metrics) string {
	t.Helper()
	if m == nil {
		t.Fatal("metrics: telemetry was enabled but Metrics() is nil")
	}
	mm := *m
	mm.Workload = ""
	mm.ExecMode = ""
	mm.Workers = 0
	b, err := mm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runSpec simulates one workload spec with telemetry on, under schedule sc,
// returning the Result and the telemetry blob.
func runSpec(t *testing.T, arch gscalar.Arch, spec string, scale int, sc schedule) (gscalar.Result, *gscalar.Metrics) {
	t.Helper()
	s, err := gscalar.NewSession(sc.config(), arch)
	if err != nil {
		t.Fatal(err)
	}
	s.Telemetry = gscalar.TelemetryOptions{Enabled: true}
	res, err := s.RunWorkload(context.Background(), spec, scale)
	if err != nil {
		t.Fatalf("%s on %s (%s): %v", spec, arch, sc.mode, err)
	}
	if res.ExecMode != sc.mode {
		t.Errorf("%s on %s: ran the %q schedule, want %q", spec, arch, res.ExecMode, sc.mode)
	}
	return res, s.Metrics()
}

// TestTraceCaptureReplay is the tracedet gate: every builtin workload is
// captured under each chip-loop schedule, then replayed from that trace
// file under both architectures and the same schedule, and each replay must
// be byte-identical (Result and telemetry, execution metadata stripped) to
// the live run of that schedule. It also asserts that capturing perturbs
// nothing (the capturing run's Result equals the plain live run's) and that
// the schedule leaves the captured input unchanged, so any of the traces
// replays the same under any schedule.
func TestTraceCaptureReplay(t *testing.T) {
	workloadSet := gscalar.Workloads()
	archs := []gscalar.Arch{gscalar.Baseline, gscalar.GScalar}
	if testing.Short() {
		workloadSet = []string{"HS", "MQ", "SAD"}
		archs = archs[1:]
	}
	for _, abbr := range workloadSet {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			var first *trace.Trace
			serialLive := map[gscalar.Arch]gscalar.Result{}
			for _, sc := range schedules {
				capRes, path := captureWorkload(t, gscalar.GScalar, sc, abbr, 1)
				tr, err := trace.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = tr
				} else if !sameInput(tr, first) {
					t.Errorf("%s: the %s capture holds a different simulation input than the serial one", abbr, sc.mode)
				}
				spec := "trace:" + path
				for _, arch := range archs {
					liveRes, liveMet := runSpec(t, arch, abbr, 1, sc)
					if arch == gscalar.GScalar {
						if got, want := resultJSON(t, capRes), resultJSON(t, liveRes); got != want {
							t.Errorf("%s/%s/%s: capturing run differs from plain live run:\n%s\nvs\n%s", abbr, arch, sc.mode, got, want)
						}
					}
					repRes, repMet := runSpec(t, arch, spec, 1, sc)
					if got, want := resultJSON(t, repRes), resultJSON(t, liveRes); got != want {
						t.Errorf("%s/%s/%s: replay differs from live:\n%s\nvs\n%s", abbr, arch, sc.mode, got, want)
					}
					if got, want := metricsJSON(t, repMet), metricsJSON(t, liveMet); got != want {
						t.Errorf("%s/%s/%s: replay telemetry differs from live", abbr, arch, sc.mode)
					}
					// The per-cycle schedules differ only in float summation
					// order, so a phased replay simulates the serial run's
					// cycles and instructions.
					switch sc.mode {
					case "serial":
						serialLive[arch] = liveRes
					case "phased":
						if s := serialLive[arch]; repRes.Cycles != s.Cycles || repRes.WarpInsts != s.WarpInsts {
							t.Errorf("%s/%s: phased replay cycles/insts (%d, %d) differ from serial live (%d, %d)",
								abbr, arch, repRes.Cycles, repRes.WarpInsts, s.Cycles, s.WarpInsts)
						}
					}
				}
			}
		})
	}
}

// sameInput reports whether two traces carry the same simulation input:
// program, launch and initial memory image.
func sameInput(a, b *trace.Trace) bool {
	an, ap := a.NewMemory().Snapshot()
	bn, bp := b.NewMemory().Snapshot()
	return a.ProgramText() == b.ProgramText() && *a.Launch() == *b.Launch() &&
		an == bn && reflect.DeepEqual(ap, bp)
}

// TestTraceContentIntegrity checks the trace file itself: it decodes, its
// metadata records the capturing run, and its static sections materialise.
func TestTraceContentIntegrity(t *testing.T) {
	_, path := captureWorkload(t, gscalar.GScalar, schedules[0], "HS", 1)
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Workload != "HS" || tr.Meta.WarpSize != gscalar.DefaultConfig().WarpSize {
		t.Errorf("meta = %+v", tr.Meta)
	}
	if tr.Meta.ConfigHash != gscalar.DefaultConfig().Hash() {
		t.Errorf("meta config hash %q, want the capturing config's", tr.Meta.ConfigHash)
	}
	if len(tr.Hash) != 64 {
		t.Errorf("content hash %q, want sha256 hex", tr.Hash)
	}
	if _, err := tr.Program(); err != nil {
		t.Fatalf("program: %v", err)
	}
}

// TestTraceReplacedFile pins the content-keying contract for a path whose
// trace is re-captured in place: resolving the path again must see the new
// file, both in its canonical key and in what a replay simulates.
func TestTraceReplacedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "replaced.gstr")
	spec := "trace:" + path
	for _, abbr := range []string{"HS", "SR2"} {
		s, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.GScalar)
		if err != nil {
			t.Fatal(err)
		}
		s.Capture.Path = path
		live, err := s.RunWorkload(context.Background(), abbr, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if key, err := gscalar.CanonicalWorkloadKey(spec); err != nil || key != "trace:"+tr.Hash {
			t.Errorf("after capturing %s: key = %s (%v), want trace:%s", abbr, key, err, tr.Hash)
		}
		rep, _ := runSpec(t, gscalar.GScalar, spec, 1, schedules[0])
		if got, want := resultJSON(t, rep), resultJSON(t, live); got != want {
			t.Errorf("after capturing %s: replay ran %d cycles, the live run %d", abbr, rep.Cycles, live.Cycles)
		}
	}
}

// TestUnknownWorkloadSpec pins the error contract: an unknown spec names
// the valid workloads, and a trace spec pointing at a missing or truncated
// file surfaces the trace package's typed errors.
func TestUnknownWorkloadSpec(t *testing.T) {
	s, err := gscalar.NewSession(gscalar.DefaultConfig(), gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunWorkload(context.Background(), "NOPE", 1)
	var unk *gscalar.UnknownWorkloadError
	if !errors.As(err, &unk) {
		t.Fatalf("unknown workload error = %v, want *UnknownWorkloadError", err)
	}
	for _, want := range []string{"NOPE", "HS", "trace:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	if _, err := s.RunWorkload(context.Background(), "trace:"+filepath.Join(t.TempDir(), "missing.gstr"), 1); err == nil {
		t.Error("missing trace file: want error")
	}

	if _, err := gscalar.CanonicalWorkloadKey("NOPE"); !errors.As(err, &unk) {
		t.Errorf("CanonicalWorkloadKey unknown spec error = %v", err)
	}
	key, err := gscalar.CanonicalWorkloadKey("HS")
	if err != nil || key != "HS" {
		t.Errorf("CanonicalWorkloadKey(HS) = %q, %v", key, err)
	}
}

// TestTraceContentKeyStable pins the content-addressing property: capturing
// the same run twice produces byte-identical files, hence equal canonical
// keys, regardless of path.
func TestTraceContentKeyStable(t *testing.T) {
	_, p1 := captureWorkload(t, gscalar.GScalar, schedules[0], "MQ", 1)
	_, p2 := captureWorkload(t, gscalar.GScalar, schedules[0], "MQ", 1)
	k1, err := gscalar.CanonicalWorkloadKey("trace:" + p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := gscalar.CanonicalWorkloadKey("trace:" + p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("same capture, different keys:\n%s\n%s", k1, k2)
	}
	if len(k1) != len("trace:")+64 {
		t.Errorf("key %q, want trace:<sha256hex>", k1)
	}
}
