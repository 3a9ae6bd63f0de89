package gpu

import (
	"gscalar/internal/core"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/sm"
	"gscalar/internal/telemetry"
)

// chipSampler bridges one launch's chip state to the telemetry recorder. It
// reads per-SM counters and the live power meters at lifecycle checkpoints —
// serially, between cycles — so sampling observes exactly the state a
// telemetry-free run would have had, and mutates none of it.
type chipSampler struct {
	rec    *telemetry.Recorder
	sms    []*sm.SM
	meters []*power.Meter // live meters: per-SM ones (none when serial), then the caller's
	stride uint64         // resolved sampling stride in simulated cycles
}

// bindTelemetry wires cfg.Telemetry (when set) to a freshly built launch:
// it begins a recorder launch, registers every layer's counters and gauges,
// and returns the sampler the lifecycle drives. Returns nil when telemetry
// is disabled. finalMeter is the meter Finish will run on (the caller's
// cumulative meter); liveMeters are the ones energy accumulates into during
// the launch, for mid-run samples. mode and workers record the chip loop
// that is about to run and its resolved worker count, so exported metrics
// state what actually executed.
func bindTelemetry(cfg Config, sms []*sm.SM, liveMeters []*power.Meter, finalMeter *power.Meter, msys *mem.System, mode string, workers int) *chipSampler {
	rec := cfg.Telemetry
	if rec == nil {
		return nil
	}
	stride := rec.RequestedStride()
	if stride == 0 {
		stride = cfg.ObserverStride
	}
	if stride == 0 {
		stride = DefaultLifecycleStride
	}
	rfClasses := make([]string, core.NumAccessClasses)
	for c := core.AccessClass(0); c < core.NumAccessClasses; c++ {
		rfClasses[c] = c.String()
	}
	rec.BeginLaunch(telemetry.Meta{
		ClockHz:          cfg.CoreClockHz,
		SampleStride:     stride,
		NumSMs:           len(sms),
		EnergyComponents: power.ComponentNames(),
		RFAccessClasses:  rfClasses,
		ExecMode:         mode,
		Workers:          workers,
	})
	reg := rec.Registry()
	for _, s := range sms {
		s.RegisterTelemetry(reg)
	}
	msys.RegisterTelemetry(reg)
	finalMeter.RegisterTelemetry(reg, telemetry.InstanceChip)
	return &chipSampler{rec: rec, sms: sms, meters: liveMeters, stride: stride}
}

// sample records one time-series point at the given launch-local cycle. A
// cycle already sampled (a final sample landing on a checkpoint cycle) is
// skipped by the recorder.
func (cs *chipSampler) sample(cycle uint64) {
	sp := cs.rec.NewSample(cycle)
	if sp == nil {
		return
	}
	sp.PerSM = make([]telemetry.SMSample, len(cs.sms))
	rf := make([]uint64, core.NumAccessClasses)
	for i, s := range cs.sms {
		st := s.Stats()
		sp.WarpInsts += st.WarpInsts
		if s.Busy() {
			sp.LiveSMs++
		}
		sp.PerSM[i] = telemetry.SMSample{Retired: st.WarpInsts, LiveWarps: s.LiveWarps()}
		for c := range rf {
			rf[c] += st.RFReads[c]
		}
	}
	energy := make([]float64, power.NumComponents)
	for _, m := range cs.meters {
		for c := power.Component(0); c < power.NumComponents; c++ {
			energy[c] += m.Energy(c)
		}
	}
	sp.EnergyPJ = energy
	sp.RFReads = rf
}
