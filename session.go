package gscalar

import (
	"context"
	"errors"
	"fmt"

	"gscalar/internal/gpu"
	"gscalar/internal/sm"
	"gscalar/internal/telemetry"
	"gscalar/internal/trace"
	"gscalar/internal/workloads"
)

// Progress is the point-in-time snapshot passed to a Session's Observer:
// the current simulated cycle, the warp instructions committed chip-wide
// so far, and the SMs that still have resident work. The JSON tags are a
// stable serialization contract: the sweep server's job-status endpoint
// streams these snapshots to clients.
type Progress = gpu.Progress

// Session is a validated run context: one (Config, Arch) pair whose
// invariants were checked once at construction, plus the lifecycle hooks —
// progress observation and context cancellation — shared by every run
// started from it. The zero Session is not usable; construct with
// NewSession.
//
// All run methods take a context.Context. Cancellation (and context
// deadlines) are observed only at cycle-commit boundaries every
// ObserverStride simulated cycles, so a run that completes is bit-identical
// to an uncancellable one, and a cancelled run returns the partial Result
// accumulated up to the checkpoint that saw the cancellation, alongside an
// error satisfying errors.Is(err, context.Canceled) (or DeadlineExceeded).
type Session struct {
	cfg  Config
	arch Arch

	// Observer, when non-nil, receives progress snapshots at lifecycle
	// checkpoints. It runs on the simulation goroutine and must not block
	// for long or mutate simulator state; observing a run never changes its
	// result. Set it before the first run.
	Observer func(Progress)
	// ObserverStride is the simulated-cycle spacing of lifecycle
	// checkpoints: observer calls, telemetry samples and cancellation
	// checks. 0 means the gpu package's DefaultLifecycleStride (4096).
	// Checkpoints land at deterministic simulated cycles, which is what
	// makes the telemetry series and observer-triggered cancellation the
	// same on every execution. The serial and phased schedules checkpoint
	// exactly on multiples of the stride; the relaxed schedule checkpoints
	// at the end of the epoch that reaches a multiple.
	ObserverStride uint64
	// Telemetry configures per-run metric collection; the most recent run's
	// data is returned by Metrics. Like Observer it lives off-Config, so
	// enabling it changes neither the config hash nor any simulated result.
	// A session with telemetry enabled must not run concurrently with
	// itself (Metrics is overwritten per run).
	Telemetry TelemetryOptions
	// Capture configures trace capture: when Capture.Path is non-empty,
	// each single-launch run snapshots its simulation input — program,
	// launch configuration and initial memory image — before it starts,
	// and writes it to that path as a replayable trace once it succeeds
	// (replay with workload spec "trace:<path>"). Like Observer and
	// Telemetry it lives off-Config: enabling capture changes neither the
	// config hash nor any simulated result, and it works under every
	// chip-loop schedule. Multi-launch sequences reject it; a run that
	// fails or is cancelled writes no trace.
	Capture CaptureOptions

	metrics *Metrics // telemetry of the most recently completed run
}

// CaptureOptions configures Session trace capture.
type CaptureOptions struct {
	// Path is the destination trace file; empty disables capture. The file
	// is written atomically after a successful run (store.AtomicWrite), so
	// an interrupted capture never leaves a truncated trace behind.
	Path string
}

// NewSession normalizes and validates cfg and binds it to arch. It is the
// single entry onto the validated-config path: every run goes through a
// Session, so an invalid configuration is rejected before any simulator
// state is built.
func NewSession(cfg Config, arch Arch) (*Session, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, arch: arch}, nil
}

// Config returns the session's normalized, validated configuration.
func (s *Session) Config() Config { return s.cfg }

// Arch returns the session's architecture.
func (s *Session) Arch() Arch { return s.arch }

// Metrics returns the telemetry collected by the session's most recent run,
// or nil when Telemetry.Enabled was false (or no run has completed). A
// cancelled run still produces metrics for its simulated prefix.
func (s *Session) Metrics() *Metrics { return s.metrics }

// lower produces the internal chip config with the session's lifecycle
// hooks attached. The observer and telemetry recorder live here — not on
// Config — so Config stays a plain serializable value (JSON round-trip,
// content hash). Its Telemetry recorder is nil when telemetry is disabled.
func (s *Session) lower() gpu.Config {
	g := gpu.Config{Config: sm.Config(s.cfg), Observer: s.Observer, ObserverStride: s.ObserverStride}
	if s.Telemetry.Enabled {
		g.Telemetry = telemetry.NewRecorder()
	}
	return g
}

// finishMetrics publishes a completed (or cancelled) run's telemetry.
func (s *Session) finishMetrics(rec *telemetry.Recorder, workload string, r gpu.Result) {
	if rec != nil {
		s.metrics = newMetrics(rec, s, workload, r)
	}
}

// wrapErr annotates an error escaping a session run with what was running
// and under which architecture, preserving the cause for errors.Is/As.
func (s *Session) wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("gscalar: %s on %s: %w", what, s.arch, err)
}

// Run simulates an assembled program. On cancellation the returned Result
// holds the partial statistics accumulated so far (see Session).
func (s *Session) Run(ctx context.Context, prog *Program, launch Launch, mem *Memory) (Result, error) {
	lc, err := launch.toKernel()
	if err != nil {
		return Result{}, err
	}
	return s.runInstance(ctx, prog.Name(), 0, &workloads.Instance{Prog: prog.p, Launch: lc, Mem: mem.m})
}

// RunWorkload resolves a workload spec — a Table 2 abbreviation ("HS") or a
// captured trace ("trace:<path>") — builds it at the given scale (1 = the
// default size; trace replays ignore scale, they re-run the captured launch
// exactly) and simulates it. A builtin benchmark's functional output is
// validated against its host golden model; a validation failure is returned
// as an error. A cancelled run skips that check — the output is necessarily
// incomplete — and returns the partial Result with the cancellation error.
func (s *Session) RunWorkload(ctx context.Context, spec string, scale int) (Result, error) {
	src, err := resolveWorkload(spec)
	if err != nil {
		return Result{}, err
	}
	if scale < 1 {
		scale = 1
	}
	inst, err := src.Build(scale)
	if err != nil {
		return Result{}, s.wrapErr(spec, err)
	}
	res, err := s.runInstance(ctx, spec, scale, inst)
	if err != nil {
		return res, err
	}
	if inst.Check != nil {
		if err := inst.Check(); err != nil {
			return Result{}, s.wrapErr(spec, err)
		}
	}
	return res, nil
}

// resolveWorkload maps a spec onto a workload source, translating the
// internal unknown-name error onto the package's typed UnknownWorkloadError.
func resolveWorkload(spec string) (workloads.Source, error) {
	src, err := workloads.Resolve(spec)
	if err != nil {
		var unk *workloads.UnknownError
		if errors.As(err, &unk) {
			return nil, errUnknownWorkload(spec)
		}
		return nil, fmt.Errorf("gscalar: workload %s: %w", spec, err)
	}
	return src, nil
}

// runInstance executes a built workload instance on the timed simulator.
// It makes no golden-output check: RunWorkload checks a builtin's output
// after it returns, and Run's custom programs have no golden model. With
// capture enabled, the input is snapshotted before the run mutates memory,
// and written only if the run succeeds: a trace must represent a complete
// execution.
func (s *Session) runInstance(ctx context.Context, label string, scale int, inst *workloads.Instance) (Result, error) {
	var cap *trace.Capture
	if s.Capture.Path != "" {
		cap = trace.NewCapture(trace.Meta{
			Workload:   label,
			Arch:       s.arch.String(),
			Scale:      scale,
			ConfigHash: s.cfg.Hash(),
			WarpSize:   s.cfg.WarpSize,
		}, inst.Prog, inst.Launch, inst.Mem)
	}
	g := s.lower()
	r, err := gpu.RunContext(ctx, g, s.arch.model(), inst.Prog, inst.Launch, inst.Mem)
	s.finishMetrics(g.Telemetry, label, r)
	if cap != nil && err == nil {
		err = cap.WriteFile(s.Capture.Path)
	}
	return resultFrom(r), s.wrapErr(label, err)
}

// RunSequence simulates a dependent sequence of kernel launches sharing the
// given device memory (serialised by an implicit device barrier, as CUDA
// streams would for dependent kernels). Cycles and energy accumulate across
// the whole sequence; a cancelled sequence returns the aggregate of every
// completed launch plus the in-flight launch's partial prefix.
func (s *Session) RunSequence(ctx context.Context, mem *Memory, seq []KernelLaunch) (Result, error) {
	if s.Capture.Path != "" {
		return Result{}, s.wrapErr("sequence", fmt.Errorf("trace capture covers exactly one kernel launch; it cannot record a multi-launch sequence"))
	}
	steps := make([]gpu.Step, 0, len(seq))
	for _, kl := range seq {
		lc, err := kl.Launch.toKernel()
		if err != nil {
			return Result{}, err
		}
		steps = append(steps, gpu.Step{Prog: kl.Prog.p, Launch: lc})
	}
	g := s.lower()
	r, err := gpu.RunSequenceContext(ctx, g, s.arch.model(), mem.m, steps)
	s.finishMetrics(g.Telemetry, "sequence", r)
	return resultFrom(r), s.wrapErr("sequence", err)
}
