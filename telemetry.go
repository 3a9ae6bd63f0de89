package gscalar

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"gscalar/internal/core"
	"gscalar/internal/gpu"
	"gscalar/internal/power"
	"gscalar/internal/telemetry"
)

// TelemetryOptions configures per-run metric collection on a Session. Like
// Observer, it lives off-Config so Config stays a plain serializable value:
// enabling telemetry never changes a config hash, and — because all
// collection happens at commit boundaries off the hot path — never changes a
// simulated Result either.
type TelemetryOptions struct {
	// Enabled turns on counter registration and time-series sampling for
	// every run started from the session; the collected data of the most
	// recent run is available from Session.Metrics. The series is sampled
	// at the session's lifecycle checkpoints (ObserverStride).
	Enabled bool
}

// CounterValue is one finalized metric: a name plus an instance
// discriminator (an SM id or DRAM channel id; -1 for chip-level metrics).
type CounterValue = telemetry.CounterValue

// SMSample is one SM's slice of a time-series sample: the warp
// instructions it committed so far (Retired) and its resident, unfinished
// warps (LiveWarps).
type SMSample = telemetry.SMSample

// Sample is one chip-wide time-series snapshot, taken at a lifecycle
// checkpoint. EnergyPJ is indexed by Series.EnergyComponents and RFReads by
// Series.RFAccessClasses; IPC is the cumulative chip IPC at the sample.
type Sample = telemetry.Sample

// Series is the sampled time series of one run. SampleStride is the
// session's lifecycle checkpoint stride, at which the samples were taken.
type Series struct {
	SampleStride     uint64   `json:"sample_stride"`
	EnergyComponents []string `json:"energy_components"`
	RFAccessClasses  []string `json:"rf_access_classes"`
	Samples          []Sample `json:"samples"`
}

// Metrics is the stable exported telemetry of one run: final counter values
// plus the sampled series, with enough context (arch, config hash, clock) to
// interpret them. Export it with WriteJSON, WriteCSV, or WriteTrace.
type Metrics struct {
	Workload   string         `json:"workload,omitempty"`
	Arch       string         `json:"arch"`
	ConfigHash string         `json:"config_hash"`
	ClockHz    float64        `json:"clock_hz"`
	NumSMs     int            `json:"num_sms"`
	ExecMode   string         `json:"exec_mode,omitempty"` // chip loop that ran: serial, phased, relaxed
	Workers    int            `json:"workers,omitempty"`   // resolved compute-worker count of that loop
	Counters   []CounterValue `json:"counters"`
	Series     Series         `json:"series"`
}

// newMetrics publishes a finalized internal recorder with the context
// needed to read it: the session's config and the run's Result say what
// ran.
func newMetrics(rec *telemetry.Recorder, s *Session, workload string, r gpu.Result) *Metrics {
	stride := s.ObserverStride
	if stride == 0 {
		stride = gpu.DefaultLifecycleStride
	}
	rfClasses := make([]string, core.NumAccessClasses)
	for c := range rfClasses {
		rfClasses[c] = core.AccessClass(c).String()
	}
	return &Metrics{
		Workload:   workload,
		Arch:       s.arch.String(),
		ConfigHash: s.cfg.Hash(),
		ClockHz:    s.cfg.CoreClockHz,
		NumSMs:     s.cfg.NumSMs,
		ExecMode:   r.ExecMode,
		Workers:    r.Workers,
		Counters:   rec.Finals(),
		Series: Series{
			SampleStride:     stride,
			EnergyComponents: power.ComponentNames(),
			RFAccessClasses:  rfClasses,
			Samples:          rec.Samples(),
		},
	}
}

// MetricsSet bundles the telemetry of several runs (e.g. gscalar-sim -all)
// into one export.
type MetricsSet []*Metrics

// WriteJSON writes the metrics as one indented JSON object.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// JSON returns the metrics as one compact JSON object — the blob shape the
// result store persists alongside each simulation point.
func (m *Metrics) JSON() ([]byte, error) {
	return json.Marshal(m)
}

// WriteJSON writes the set as {"runs": [...]}.
func (ms MetricsSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Runs []*Metrics `json:"runs"`
	}{Runs: ms})
}

// WriteCSV writes the metrics as CSV; see MetricsSet.WriteCSV for the
// format.
func (m *Metrics) WriteCSV(w io.Writer) error { return MetricsSet{m}.WriteCSV(w) }

// WriteCSV writes two sections separated by a blank line: final counters
// (workload,arch,name,instance,value — one row per counter per run) and the
// time series (one row per sample per run; energy, RF-class, and per-SM
// columns widen with the configuration). Every run of the set must share
// one configuration shape, which holds for any set produced by one Session.
func (ms MetricsSet) WriteCSV(w io.Writer) error {
	if len(ms) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "arch", "name", "instance", "value"}); err != nil {
		return err
	}
	for _, m := range ms {
		for _, c := range m.Counters {
			rec := []string{m.Workload, m.Arch, c.Name, strconv.Itoa(c.Instance), fmtFloat(c.Value)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}

	first := ms[0].Series
	header := []string{"workload", "arch", "cycle", "warp_insts", "ipc", "live_sms"}
	for _, c := range first.EnergyComponents {
		header = append(header, "energy_"+c+"_pj")
	}
	for _, c := range first.RFAccessClasses {
		header = append(header, "rf_reads_"+c)
	}
	for i := 0; i < ms[0].NumSMs; i++ {
		header = append(header, fmt.Sprintf("sm%d_retired", i), fmt.Sprintf("sm%d_live_warps", i))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, m := range ms {
		if len(m.Series.EnergyComponents) != len(first.EnergyComponents) ||
			len(m.Series.RFAccessClasses) != len(first.RFAccessClasses) ||
			m.NumSMs != ms[0].NumSMs {
			return fmt.Errorf("gscalar: CSV export needs a homogeneous metrics set (run %q differs)", m.Workload)
		}
		for _, sp := range m.Series.Samples {
			rec := []string{m.Workload, m.Arch,
				strconv.FormatUint(sp.Cycle, 10),
				strconv.FormatUint(sp.WarpInsts, 10),
				fmtFloat(sp.IPC),
				strconv.Itoa(sp.LiveSMs)}
			for _, v := range sp.EnergyPJ {
				rec = append(rec, fmtFloat(v))
			}
			for _, v := range sp.RFReads {
				rec = append(rec, strconv.FormatUint(v, 10))
			}
			for _, ps := range sp.PerSM {
				rec = append(rec, strconv.FormatUint(ps.Retired, 10), strconv.Itoa(ps.LiveWarps))
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTrace writes the run as a Chrome trace-event file (trace.json),
// loadable in Perfetto or chrome://tracing; see MetricsSet.WriteTrace.
func (m *Metrics) WriteTrace(w io.Writer) error { return MetricsSet{m}.WriteTrace(w) }

// WriteTrace writes the set as one Chrome trace-event file: each run is a
// process (named "<workload> on <arch>"), each SM a thread carrying "active"
// intervals — spans of consecutive samples in which the SM committed
// instructions, with the committed count in args — plus chip-wide "ipc" and
// "live_sms" counter tracks. Timestamps convert simulated cycles to
// microseconds at the run's core clock.
func (ms MetricsSet) WriteTrace(w io.Writer) error {
	type event map[string]any
	events := []event{}
	for pid, m := range ms {
		toUS := func(cycle uint64) float64 {
			if m.ClockHz <= 0 {
				return float64(cycle)
			}
			return float64(cycle) / m.ClockHz * 1e6
		}
		name := m.Workload
		if name == "" {
			name = "run"
		}
		events = append(events, event{
			"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
			"args": map[string]any{"name": name + " on " + m.Arch},
		})
		for i := 0; i < m.NumSMs; i++ {
			events = append(events, event{
				"ph": "M", "name": "thread_name", "pid": pid, "tid": i,
				"args": map[string]any{"name": fmt.Sprintf("SM %d", i)},
			})
		}
		// Per-SM activity intervals: walk the samples per SM, merging
		// consecutive active sampling intervals. A retired count smaller
		// than the previous sample's marks a launch boundary within a
		// sequence (fresh SMs); the delta restarts from zero there.
		for i := 0; i < m.NumSMs; i++ {
			var prevCycle, prevRetired uint64
			var openStart uint64
			var openInsts uint64
			open := false
			flush := func(end uint64) {
				if open {
					events = append(events, event{
						"ph": "X", "name": "active", "cat": "sm",
						"pid": pid, "tid": i,
						"ts": toUS(openStart), "dur": toUS(end) - toUS(openStart),
						"args": map[string]any{"insts": openInsts},
					})
					open = false
				}
			}
			for _, sp := range m.Series.Samples {
				if i >= len(sp.PerSM) {
					continue
				}
				cur := sp.PerSM[i].Retired
				prev := prevRetired
				if cur < prev {
					prev = 0 // new launch in a sequence
				}
				if cur > prev {
					if !open {
						open = true
						openStart = prevCycle
						openInsts = 0
					}
					openInsts += cur - prev
				} else {
					flush(prevCycle)
				}
				prevCycle = sp.Cycle
				prevRetired = cur
			}
			flush(prevCycle)
		}
		for _, sp := range m.Series.Samples {
			events = append(events, event{
				"ph": "C", "name": "ipc", "pid": pid, "tid": 0,
				"ts": toUS(sp.Cycle), "args": map[string]any{"ipc": sp.IPC},
			})
			events = append(events, event{
				"ph": "C", "name": "live_sms", "pid": pid, "tid": 0,
				"ts": toUS(sp.Cycle), "args": map[string]any{"sms": sp.LiveSMs},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"})
}
