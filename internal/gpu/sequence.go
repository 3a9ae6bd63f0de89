package gpu

import (
	"context"
	"fmt"

	"gscalar/internal/kernel"
	"gscalar/internal/power"
	"gscalar/internal/sm"
)

// Step is one kernel launch of a sequence.
type Step struct {
	Prog   *kernel.Program
	Launch *kernel.LaunchConfig
}

// RunSequenceContext simulates a dependent sequence of kernel launches
// sharing one device memory — the way real applications run (e.g. srad's two
// passes, or an iterative stencil). Launches are serialised by an implicit
// device-level barrier, cycles accumulate across launches, and energy is
// integrated over the whole sequence, so the returned Result is directly
// comparable to a single-launch Run; its ExecMode and Workers are the last
// launch's. Cancelling ctx cuts the sequence at the in-flight launch's next
// lifecycle checkpoint; the Result then aggregates every completed launch
// plus the cancelled launch's partial prefix. An error of a sequence of
// several launches names the launch it came from.
func RunSequenceContext(ctx context.Context, cfg Config, arch sm.Arch, gmem *kernel.Memory, steps []Step) (Result, error) {
	if len(steps) == 0 {
		return Result{}, fmt.Errorf("gpu: empty launch sequence")
	}
	maxCycles := cfg.effectiveMaxCycles()

	var meter power.Meter
	var agg rawResult
	var runErr error
	for i, st := range steps {
		stepCfg := cfg
		stepCfg.MaxCycles = maxCycles - agg.Stats.Cycles
		if cfg.Telemetry != nil {
			// Each launch's internal cycle counter restarts at zero; the base
			// keeps the recorded series on the sequence-global cycle axis.
			cfg.Telemetry.SetCycleBase(agg.Stats.Cycles)
		}
		r, err := runWithMeter(ctx, stepCfg, arch, st.Prog, st.Launch, gmem, &meter)
		agg.Stats.Cycles += r.Stats.Cycles // Add sums every counter but the cycle count
		agg.Stats.Add(&r.Stats)
		agg.Mode, agg.Workers = r.Mode, r.Workers
		if err != nil {
			if len(steps) > 1 {
				err = fmt.Errorf("gpu: launch %d (%s): %w", i, st.Prog.Name, err)
			}
			if !isContextErr(err) {
				return Result{}, err
			}
			runErr = err
			break
		}
	}
	staticW := power.DefaultEnergies().StaticW(cfg.NumSMs, arch.HasCodec())
	bd := meter.Finish(agg.Stats.Cycles, cfg.CoreClockHz, staticW)
	// Finalize after Finish so the power gauges capture the static bucket.
	if cfg.Telemetry != nil {
		cfg.Telemetry.Finalize()
	}
	res := Result{
		Stats:    agg.Stats,
		Power:    bd,
		ExecMode: agg.Mode,
		Workers:  agg.Workers,
	}
	if bd.AvgPowerW > 0 {
		res.IPCPerW = agg.Stats.IPC() / bd.AvgPowerW
	}
	return res, runErr
}
