// Package telemetry is the simulator's run-observability layer: a typed
// counter/gauge registry that the microarchitectural layers (SM, register
// file, memory system, power meters) register into at construction, plus a
// time-series recorder that snapshots chip state at the deterministic
// lifecycle checkpoints of the chip loops.
//
// The design keeps the simulation hot path untouched: a counter is a plain
// uint64 field owned by the registering layer and incremented directly (no
// indirection, no allocation, no atomic), and the registry stores only a
// *pointer* to it. Gauges are closures over equally plain state. All reads
// happen off the hot path — at checkpoint sampling and at finalization — so
// collection never perturbs simulated results: a run with telemetry enabled
// is bit-identical to one without.
//
// The package deliberately imports nothing from the simulator so every
// internal layer can depend on it without cycles.
package telemetry

import "sort"

// InstanceChip is the instance id of chip-level (non-per-unit) metrics.
const InstanceChip = -1

// CounterValue is one finalized metric value: a name plus an instance
// discriminator (an SM id, a DRAM channel id, …; InstanceChip for
// chip-level metrics). The JSON tags are part of the exported telemetry
// format (gscalar.CounterValue is this type).
type CounterValue struct {
	Name     string  `json:"name"`
	Instance int     `json:"instance"`
	Value    float64 `json:"value"`
}

type counterEntry struct {
	name string
	inst int
	v    *uint64
}

type gaugeEntry struct {
	name string
	inst int
	f    func() float64
}

// Registry collects the metric registrations of one launch. Layers register
// at construction time; the recorder reads the registered sources when a
// launch ends (or the next one begins).
type Registry struct {
	counters []counterEntry
	gauges   []gaugeEntry
}

// Counter registers a monotonic uint64 counter. The owner keeps incrementing
// *v directly; across the launches of a sequence, same-named registrations
// accumulate into one final value.
func (r *Registry) Counter(name string, instance int, v *uint64) {
	r.counters = append(r.counters, counterEntry{name, instance, v})
}

// Gauge registers a point-in-time value read through f. Across the launches
// of a sequence the final value is the last launch's reading (last-wins), so
// cumulative sources — like a power meter shared by every launch — report
// their end-of-run total.
func (r *Registry) Gauge(name string, instance int, f func() float64) {
	r.gauges = append(r.gauges, gaugeEntry{name, instance, f})
}

// SMSample is one SM's slice of a time-series sample.
type SMSample struct {
	Retired   uint64 `json:"retired"`    // warp instructions committed by this SM so far
	LiveWarps int    `json:"live_warps"` // resident, unfinished warps
}

// Sample is one chip-wide time-series snapshot, taken at a lifecycle
// checkpoint. Cycle is sequence-global (launches of a sequence keep
// counting); the per-launch counters (WarpInsts, PerSM[i].Retired) restart
// with each launch's fresh SMs. The JSON tags are part of the exported
// telemetry format (gscalar.Sample is this type).
type Sample struct {
	Cycle     uint64     `json:"cycle"`
	WarpInsts uint64     `json:"warp_insts"` // warp instructions committed chip-wide this launch
	IPC       float64    `json:"ipc"`        // WarpInsts / Cycle (0 at cycle 0)
	LiveSMs   int        `json:"live_sms"`
	PerSM     []SMSample `json:"per_sm"`
	EnergyPJ  []float64  `json:"energy_pj"` // per-component energy so far, indexed by power.Component
	RFReads   []uint64   `json:"rf_reads"`  // RF reads by access class, indexed by core.AccessClass
}

type metricKey struct {
	name string
	inst int
}

// Recorder accumulates one run's telemetry: final counter values folded
// across every launch of the run, and the sampled time series. It is not
// safe for concurrent use; the chip loops drive it from the simulation
// goroutine only, at commit boundaries.
type Recorder struct {
	reg     Registry
	samples []Sample
	base    uint64 // cycle offset of the current launch within a sequence
	finals  map[metricKey]float64
}

// NewRecorder creates a recorder. Its series is sampled at the run's
// lifecycle checkpoints.
func NewRecorder() *Recorder {
	return &Recorder{finals: make(map[metricKey]float64)}
}

// Registry returns the registry layers register into for the current launch.
func (r *Recorder) Registry() *Registry { return &r.reg }

// BeginLaunch starts a new launch: the previous launch's registrations are
// folded into the final values (counters add, gauges overwrite) and
// cleared. The chip loop calls this once per launch, after constructing
// its SMs and before they register.
func (r *Recorder) BeginLaunch() { r.fold() }

// SetCycleBase sets the sequence-global cycle offset of the current launch,
// so series samples of later launches continue the cycle axis instead of
// restarting at zero.
func (r *Recorder) SetCycleBase(base uint64) { r.base = base }

// NewSample appends a sample at the given launch-local cycle and returns it
// for the caller to fill. It returns nil when a sample at the same global
// cycle already exists (a final sample coinciding with a checkpoint sample).
func (r *Recorder) NewSample(cycle uint64) *Sample {
	abs := r.base + cycle
	if n := len(r.samples); n > 0 && r.samples[n-1].Cycle == abs {
		return nil
	}
	r.samples = append(r.samples, Sample{Cycle: abs})
	return &r.samples[len(r.samples)-1]
}

// Samples returns the recorded time series.
func (r *Recorder) Samples() []Sample { return r.samples }

// Finalize folds the last launch's registrations into the final values. The
// run entry points call it once, after power finalization, so gauges over
// the power meter capture static energy too.
func (r *Recorder) Finalize() { r.fold() }

// fold adds the current registrations into the final values and clears
// them.
func (r *Recorder) fold() {
	for _, c := range r.reg.counters {
		k := metricKey{c.name, c.inst}
		r.finals[k] += float64(*c.v)
	}
	for _, g := range r.reg.gauges {
		k := metricKey{g.name, g.inst}
		r.finals[k] = g.f()
	}
	r.reg.counters = r.reg.counters[:0]
	r.reg.gauges = r.reg.gauges[:0]
}

// Finals returns every finalized metric, sorted by name then instance, so
// exports are deterministic. It returns nil when nothing was registered (a
// run cut before its first launch began).
func (r *Recorder) Finals() []CounterValue {
	if len(r.finals) == 0 {
		return nil
	}
	out := make([]CounterValue, 0, len(r.finals))
	for k, v := range r.finals {
		out = append(out, CounterValue{Name: k.name, Instance: k.inst, Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}
