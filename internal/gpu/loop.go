package gpu

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"gscalar/internal/kernel"
	"gscalar/internal/mem"
	"gscalar/internal/power"
	"gscalar/internal/sm"
)

// chip is one launch's SMs under the chip loop, plus the span the current
// step advances them through.
type chip struct {
	sms     []*sm.SM
	relaxed bool
	// start and end bound the current step, [start, end). The loop writes
	// them before each step; pool workers read them after the start signal.
	start, end uint64
	// stops[i] is, in the relaxed schedule, one past the last cycle SM i
	// stepped in the current epoch (start if it stepped none). Each entry
	// is written only by the goroutine that steps its SM. A per-cycle step
	// always stops at end.
	stops []uint64
}

// step advances SM i through the current span: one Cycle in the per-cycle
// schedules, a whole epoch with local idle skipping in the relaxed one.
func (c *chip) step(i int) {
	if c.relaxed {
		c.stops[i] = c.sms[i].RunEpoch(c.start, c.end)
	} else {
		c.sms[i].Cycle(c.start)
	}
}

// runChip is the chip loop. Every execution mode runs the same sequence —
// dispatch CTAs, step every SM through [cycle, cycle+interval), commit each
// SM's deferred shared-state accesses in ascending SM-id order, advance,
// checkpoint — and the mode only sets its parameters:
//
//   - serial (Workers == 0, EpochCycles == 0): interval 1, one goroutine,
//     one pass that commits each SM right after its own step, on the
//     caller's meter. An SM's stores are thus visible to higher-numbered SMs
//     within the same cycle. The perfbench benchmark pins this schedule's
//     results, which is why it still exists.
//   - phased (Workers != 0): interval 1; the worker pool steps every SM,
//     then all commit after the barrier. Each SM deposits energy in a
//     private meter, merged into the caller's in SM order at the end. Every
//     worker count gives bit-identical results, which differ from the
//     serial schedule's only in the low bits of the energy sums and where
//     an SM loads a location a lower-numbered SM stored in the same cycle.
//   - relaxed (EpochCycles > 0): interval EpochCycles; otherwise as phased.
//     Inside an epoch SMs run on estimated beyond-L1 latencies against the
//     shared memory system as the last commit left it, so results are not
//     bit-identical to the per-cycle schedules, but they are a pure
//     function of (config, program, launch, memory image, EpochCycles).
//     An epoch that would open on a chip of quiescent SMs opens instead at
//     their earliest next event (nextEventCycle).
//
// The per-cycle schedules step every cycle; a quiescent SM's Cycle is a
// comparison per stage and per warp scheduler. The commit order is fixed
// and a step reads only shared state frozen at the last commit, so no
// schedule's result depends on the worker count.
func runChip(ctx context.Context, cfg Config, arch sm.Arch, prog *kernel.Program, lc *kernel.LaunchConfig, gmem *kernel.Memory, meter *power.Meter) (rawResult, error) {
	mode, interval := modeSerial, uint64(1)
	switch {
	case cfg.EpochCycles > 0:
		mode, interval = modeRelaxed, uint64(cfg.EpochCycles)
	case cfg.Workers != 0:
		mode = modePhased
	}
	serial := mode == modeSerial
	maxCycles := cfg.effectiveMaxCycles()
	msys := mem.NewSystem(cfg.MemChannels, cfg.L2Bytes)
	c := &chip{sms: make([]*sm.SM, cfg.NumSMs), relaxed: mode == modeRelaxed, stops: make([]uint64, cfg.NumSMs)}
	en := power.DefaultEnergies()
	var meters []*power.Meter // per-SM meters; none in the serial schedule
	for i := range c.sms {
		m := meter
		if !serial {
			m = new(power.Meter)
			meters = append(meters, m)
		}
		c.sms[i] = sm.New(i, cfg.Config, arch, en, prog, lc, gmem, msys, m)
		if c.relaxed {
			c.sms[i].EnableRelaxed()
		}
	}
	// A CTA that does not fit an empty SM never will: fail now rather than
	// spin until MaxCycles (or, in the relaxed schedule, forever).
	if s := c.sms[0]; !s.CanTakeCTA() {
		return rawResult{}, fmt.Errorf("gpu: no SM can hold a CTA of this launch: it needs %d register bytes, the register file has %d",
			s.CTARegBytes(), cfg.RegFileKB<<10)
	}
	// Merge the per-SM meters in ascending id order on every exit path so
	// launch sequences keep accumulating energy across launches.
	defer func() {
		for _, pm := range meters {
			meter.Merge(pm)
		}
	}()
	workers := resolveWorkers(cfg, lc.Grid.Count())
	// Final counter gauges register on the caller's meter; mid-run energy
	// samples sum the live per-SM meters plus the caller's, which carries
	// earlier launches of a sequence.
	tel := bindTelemetry(cfg, c.sms, append(meters, meter), meter, msys, mode, workers)
	lf := newLifecycle(ctx, cfg, tel)

	var pool *workerPool
	if workers > 1 {
		pool = newWorkerPool(len(c.sms), workers, c.step)
		defer pool.close()
	}

	disp := ctaDispatcher{total: lc.Grid.Count()}
	var cycle uint64

	for {
		disp.dispatch(c.sms)

		// Relaxed epoch placement: once CTA dispatch has run (a fresh CTA
		// makes its SM unskippable), a chip where every SM is quiescent
		// starts the epoch at the earliest completion event rather than
		// stepping an empty one. Where an epoch starts decides which
		// estimates its SMs run on, so this is part of the relaxed model.
		// Idling inside an epoch is each SM's own skip in RunEpoch.
		if c.relaxed {
			if target, ok := nextEventCycle(c.sms); ok && target > cycle {
				if target >= maxCycles {
					return rawResult{}, errMaxCycles(maxCycles)
				}
				cycle = target
			}
		}

		c.start, c.end = cycle, min(cycle+interval, maxCycles)
		if pool != nil {
			pool.run()
		} else if !serial {
			for i := range c.sms {
				c.step(i)
			}
		}

		// Commit: fixed ascending SM-id order over all shared state. It runs
		// on this goroutine after the step, so it — like the epoch-placement
		// probe and the checkpoint — reads SM state race-free.
		busy := false
		last := c.start
		for i, s := range c.sms {
			stop := c.end
			if serial {
				s.Cycle(c.start)
			} else if c.relaxed {
				stop = c.stops[i]
			}
			s.Commit()
			if err := s.Err(); err != nil {
				return rawResult{}, fmt.Errorf("gpu: cycle %d: %w", stop-1, err)
			}
			busy = busy || s.Busy()
			last = max(last, stop)
		}

		// Advance. A drained chip resumes right after the last activity
		// rather than at the end of the span, so the final cycle count — and
		// the dispatch cycle of any still-pending CTA wave — does not inherit
		// epoch rounding.
		if busy {
			cycle = c.end
		} else {
			cycle = last
			if disp.done() {
				break
			}
		}
		if cycle >= maxCycles {
			return rawResult{}, errMaxCycles(maxCycles)
		}
		if err := lf.checkpoint(c.sms, cycle); err != nil {
			lf.finalSample(cycle)
			return finishRun(c.sms, cycle, mode, workers), err
		}
	}

	lf.finalSample(cycle)
	return finishRun(c.sms, cycle, mode, workers), nil
}

// errMaxCycles reports a run that hit the runaway-simulation bound.
func errMaxCycles(maxCycles uint64) error {
	return fmt.Errorf("gpu: exceeded %d cycles (deadlock or runaway kernel)", maxCycles)
}

// resolveWorkers turns Config.Workers into a concrete compute-worker count,
// applying the crossover heuristic: launches too small to keep several SMs
// busy run the same schedule inline on one goroutine, because the per-cycle
// barrier would cost more than it saves. Only the goroutine count varies
// here — never the algorithm — so every resolved value produces
// bit-identical simulation results. The serial schedule (Workers == 0)
// always resolves to 1.
func resolveWorkers(cfg Config, totalCTAs int) int {
	w := cfg.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cfg.NumSMs {
		w = cfg.NumSMs
	}
	// A single-SM chip — or a single CTA — has nothing to overlap in any
	// mode.
	if cfg.NumSMs < 2 || totalCTAs < 2 {
		return 1
	}
	// Crossover, phased mode only: fewer CTAs than SMs leaves cores idle
	// every cycle there, so the per-cycle barrier costs more than it saves.
	// The relaxed mode's barrier is per-epoch, not per-cycle, so even
	// launches that occupy only a few SMs amortise it — clamping those to
	// one worker would silently discard the parallelism the caller asked
	// for.
	if cfg.EpochCycles == 0 && totalCTAs < cfg.NumSMs {
		return 1
	}
	if w < 1 {
		w = 1
	}
	return w
}

// workerStartOrder is a test hook: when non-nil it chooses the order in
// which the worker pool launches its goroutines. An SM's owning worker is a
// pure function of the worker index — launch order cannot affect results —
// and the determinism suite uses the hook to prove it.
var workerStartOrder func(workers int) []int

// workerPool steps a chip's SMs across persistent workers. Worker w owns
// the fixed SM stride w, w+workers, w+2*workers, …, so an SM is only ever
// stepped by one goroutine and per-SM state needs no locking. run is a
// barrier: it returns only after every SM has been stepped, which
// establishes the happens-before edge for the serial commit that follows.
// A panic while a worker steps an SM ends that worker's share of the run,
// and run re-raises the first one on its caller as a *workerPanic.
type workerPool struct {
	start    []chan struct{}
	busy     sync.WaitGroup // workers still stepping the current run
	live     sync.WaitGroup // worker goroutines not yet exited
	panicked atomic.Pointer[workerPanic]
}

// workerPanic is the value run panics with when stepping an SM panicked on
// a worker goroutine: the original panic value and that goroutine's stack,
// which the caller's own stack would not show.
type workerPanic struct {
	value any
	stack []byte
}

func (e *workerPanic) Error() string {
	return fmt.Sprintf("gpu: chip-loop worker panicked: %v\n%s", e.value, e.stack)
}

// newWorkerPool starts workers goroutines that each call step(i) for their
// share of the SM indices [0, n) on every run.
func newWorkerPool(n, workers int, step func(i int)) *workerPool {
	p := &workerPool{start: make([]chan struct{}, workers)}
	order := make([]int, workers)
	for w := range p.start {
		p.start[w] = make(chan struct{}, 1)
		order[w] = w
	}
	if workerStartOrder != nil {
		order = workerStartOrder(workers)
	}
	p.live.Add(workers)
	for _, w := range order {
		go func(w int) {
			defer p.live.Done()
			for range p.start[w] {
				p.stepShare(w, n, workers, step)
			}
		}(w)
	}
	return p
}

// stepShare is worker w's part of one run. It recovers a panic in step, so
// the barrier still completes, and keeps the first one for run to re-raise.
func (p *workerPool) stepShare(w, n, workers int, step func(i int)) {
	defer p.busy.Done()
	defer func() {
		if v := recover(); v != nil {
			p.panicked.CompareAndSwap(nil, &workerPanic{value: v, stack: debug.Stack()})
		}
	}()
	for i := w; i < n; i += workers {
		step(i)
	}
}

// run steps every SM once and waits for all of them. If stepping an SM
// panicked, run panics on its caller with a *workerPanic once every worker
// has finished the run, so close can still stop the pool.
func (p *workerPool) run() {
	p.busy.Add(len(p.start))
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	p.busy.Wait()
	if wp := p.panicked.Swap(nil); wp != nil {
		panic(wp)
	}
}

// close stops the worker goroutines and waits for them to exit.
func (p *workerPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.live.Wait()
}
