// Package gpu assembles the full chip: SMs, the CTA dispatcher, and the
// shared L2/DRAM memory system, and runs a kernel launch to completion
// under a chosen architecture, producing cycle counts, statistics, and a
// power breakdown.
package gpu

import (
	"context"
	"errors"
	"fmt"

	"gscalar/internal/kernel"
	"gscalar/internal/power"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
	"gscalar/internal/telemetry"
)

// Config is one run's chip: the simulated machine (sm.Config, which a
// gscalar.Config converts to) and the run's hooks.
type Config struct {
	sm.Config
	// Observer, when non-nil, is called at lifecycle checkpoints — the
	// cycle-commit boundaries every ObserverStride simulated cycles — with a
	// point-in-time progress snapshot. It runs on the simulation goroutine
	// between cycles, outside the chip loop's hot path, and must not mutate
	// simulator state; calling it changes no simulated result.
	Observer func(Progress)
	// ObserverStride is the number of simulated cycles between lifecycle
	// checkpoints (observer calls, telemetry samples and context-cancellation
	// checks). 0 means DefaultLifecycleStride. The stride is counted in
	// simulated cycles, so checkpoint placement — and therefore the series
	// and the partial result of a cancellation triggered by the observer —
	// is deterministic. The per-cycle schedules checkpoint exactly on
	// multiples of the stride; a relaxed epoch can cross a mark, and its
	// checkpoint then fires at the epoch's end.
	ObserverStride uint64
	// Telemetry, when non-nil, collects this run's metrics: every layer
	// registers its counters/gauges at launch construction and the recorder
	// samples a time series at lifecycle checkpoints. All reads happen
	// serially between cycles and mutate no simulator state, so a run with
	// telemetry attached is bit-identical to one without.
	Telemetry *telemetry.Recorder
}

// DefaultLifecycleStride is the default spacing, in simulated cycles,
// between lifecycle checkpoints.
const DefaultLifecycleStride = 4096

// Progress is the point-in-time snapshot passed to Config.Observer. The
// JSON tags are a stable serialization contract (gscalar.Progress is this
// type): the sweep server's job-status endpoint streams these snapshots to
// clients.
type Progress struct {
	Cycle     uint64 `json:"cycle"`      // current simulated cycle
	WarpInsts uint64 `json:"warp_insts"` // warp instructions committed chip-wide so far
	LiveSMs   int    `json:"live_sms"`   // SMs that still have resident work
}

// DefaultConfig returns Table 1's chip with no hooks.
func DefaultConfig() Config { return Config{Config: sm.DefaultConfig()} }

// Result summarises one simulated launch.
type Result struct {
	Cycles  uint64
	Stats   stats.Sim
	Power   power.Breakdown
	IPC     float64 // committed warp instructions per cycle (chip-wide)
	IPCPerW float64 // the paper's power-efficiency metric
	EnergyJ float64
	// ExecMode and Workers record how the run actually executed — the chip
	// loop's schedule ("serial", "phased", or "relaxed") and the resolved
	// compute-worker count after the crossover heuristics — so benches and
	// callers can assert what ran rather than what was requested. They
	// describe the execution, not the simulated machine: every phased worker
	// count produces bit-identical simulation outputs.
	ExecMode string
	Workers  int
}

// RunContext simulates prog with launch lc on memory gmem under arch,
// honouring ctx cancellation and deadlines. Cancellation is observed only at
// lifecycle checkpoints (cycle-commit boundaries every ObserverStride
// cycles), so a run that completes is bit-identical to one executed without
// a context. A cancelled or deadline-exceeded run returns the partial Result
// accumulated up to the checkpoint that observed the cancellation — cycles,
// statistics, and power integrated over the simulated prefix — alongside an
// error satisfying errors.Is(err, ctx.Err()). It is the one-launch case of
// RunSequenceContext.
func RunContext(ctx context.Context, cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory) (Result, error) {
	return RunSequenceContext(ctx, cfg, arch, gmem, []Step{{Prog: prog, Launch: lc}})
}

// isContextErr reports whether err stems from context cancellation or an
// expired deadline — the errors that carry a well-defined partial Result.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// rawResult is a simulation outcome before power finalisation, so launch
// sequences can share one energy meter. Mode and Workers record the chip
// loop's schedule and its resolved compute-worker count.
type rawResult struct {
	Cycles  uint64
	Stats   stats.Sim
	Mode    string
	Workers int
}

// Execution-mode names recorded in rawResult.Mode / Result.ExecMode.
const (
	modeSerial  = "serial"
	modePhased  = "phased"
	modeRelaxed = "relaxed"
)

// ctaDispatcher assigns pending CTAs to SMs with capacity, round-robin from
// a rotating start index: each assignment resumes the scan at the SM after
// the one just fed, so freed capacity is shared fairly across the chip
// instead of favouring low-numbered SMs. The rotation depends only on the
// assignment history, making placement deterministic for any worker count.
type ctaDispatcher struct {
	next  int // next CTA linear id to place
	total int
	start int // SM index to begin the next scan at
}

// dispatch places as many pending CTAs as currently fit.
func (d *ctaDispatcher) dispatch(sms []*sm.SM) {
	n := len(sms)
	for d.next < d.total {
		assigned := false
		for i := 0; i < n; i++ {
			idx := (d.start + i) % n
			if sms[idx].CanTakeCTA() {
				sms[idx].LaunchCTA(d.next)
				d.next++
				d.start = (idx + 1) % n
				assigned = true
				break
			}
		}
		if !assigned {
			return
		}
	}
}

// done reports whether every CTA has been placed.
func (d *ctaDispatcher) done() bool { return d.next >= d.total }

// effectiveMaxCycles resolves the runaway-simulation bound.
func (cfg Config) effectiveMaxCycles() uint64 {
	if cfg.MaxCycles == 0 {
		return 200_000_000
	}
	return cfg.MaxCycles
}

// runWithMeter is the shared simulation entry: it validates the launch,
// deposits energy into the caller's meter and returns cycle/statistics
// totals from the chip loop (runChip) under the schedule the config selects.
func runWithMeter(ctx context.Context, cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory, meter *power.Meter) (rawResult, error) {
	if cfg.NumSMs < 1 {
		return rawResult{}, fmt.Errorf("gpu: need at least 1 SM, got %d", cfg.NumSMs)
	}
	if err := lc.Validate(cfg.MaxWarpsPerSM * cfg.WarpSize); err != nil {
		return rawResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return rawResult{}, fmt.Errorf("gpu: cancelled before cycle 0: %w", err)
	}
	return runChip(ctx, cfg, arch, prog, lc, gmem, meter)
}

// lifecycle bundles the per-run checkpoint state: the cadence at which the
// chip loop samples telemetry, invokes the progress observer and surfaces
// cancellation. All checkpoints land on cycle-commit boundaries at
// deterministic simulated cycles, so the series and a cancellation
// triggered from the observer are the same on every execution, and a run
// that completes is untouched.
type lifecycle struct {
	ctx     context.Context
	observe func(Progress)
	sampler *chipSampler // nil when telemetry is off
	stride  uint64
	next    uint64 // first cycle at or beyond which the next checkpoint fires
}

func newLifecycle(ctx context.Context, cfg Config, cs *chipSampler) lifecycle {
	stride := cfg.ObserverStride
	if stride == 0 {
		stride = DefaultLifecycleStride
	}
	return lifecycle{ctx: ctx, observe: cfg.Observer, sampler: cs, stride: stride, next: stride}
}

// checkpoint fires when the commit boundary at cycle has reached the next
// stride mark: it takes the telemetry sample, passes progress to the
// observer and reports any context cancellation. The per-cycle schedules
// reach every mark exactly. Only a relaxed epoch can cross one or more
// marks; the checkpoint then fires once at the epoch's end and realigns to
// the stride grid, keeping the firing cycles a pure function of the
// simulated cycle sequence.
func (lf *lifecycle) checkpoint(sms []*sm.SM, cycle uint64) error {
	if cycle < lf.next {
		return nil
	}
	lf.next = cycle - cycle%lf.stride + lf.stride
	if lf.sampler != nil {
		lf.sampler.sample(cycle)
	}
	if lf.observe != nil {
		lf.observe(progressOf(sms, cycle))
	}
	if err := lf.ctx.Err(); err != nil {
		return fmt.Errorf("gpu: cancelled at cycle %d: %w", cycle, err)
	}
	return nil
}

// finalSample records the closing time-series point of a launch (normal
// completion or cancellation cut). The recorder drops it if the last
// checkpoint already sampled this cycle.
func (lf *lifecycle) finalSample(cycle uint64) {
	if lf.sampler != nil {
		lf.sampler.sample(cycle)
	}
}

// progressOf samples chip-wide progress counters in ascending SM-id order.
func progressOf(sms []*sm.SM, cycle uint64) Progress {
	p := Progress{Cycle: cycle}
	for _, s := range sms {
		p.WarpInsts += s.Retired()
		if s.Busy() {
			p.LiveSMs++
		}
	}
	return p
}

// nextEventCycle folds the per-SM next-event reports into the cycle at which
// the relaxed schedule's next epoch starts. ok is false when any SM must be
// stepped cycle by cycle. A chip whose SMs are all idle (sm.NoEvent) reports
// ok=false too: the run is about to terminate, and there is nothing to skip
// to.
func nextEventCycle(sms []*sm.SM) (uint64, bool) {
	next := uint64(sm.NoEvent)
	for _, s := range sms {
		c, ok := s.NextEventCycle()
		if !ok {
			return 0, false
		}
		if c < next {
			next = c
		}
	}
	if next == sm.NoEvent {
		return 0, false
	}
	return next, true
}

// finishRun aggregates per-SM statistics in ascending id order and stamps
// the execution mode and resolved worker count the run used.
func finishRun(sms []*sm.SM, cycle uint64, mode string, workers int) rawResult {
	var agg stats.Sim
	for _, s := range sms {
		agg.Add(s.Stats())
	}
	agg.Cycles = cycle
	return rawResult{Cycles: cycle, Stats: agg, Mode: mode, Workers: workers}
}
