package main

import (
	"fmt"
	"runtime"
	"time"

	"gscalar"
)

// The workloads that call the simulator directly, one point after
// another on one goroutine, each on a fresh Session. None goes through
// experiments.Suite: its process-wide cache would answer a repeated point
// without simulating it.

// warpCoreSplit separates the two simulator workloads by what dominates
// their host time: per-instruction work (warp execute plus compression and
// detection) takes more than this share of paper-sweep's profile and less
// than it of stall-bound's, where per-cycle SM work dominates instead
// (measured at about 0.24 and 0.05 on a 2-core Xeon).
const warpCoreSplit = 0.15

func runPaperSweep(r *run) error {
	return r.simulate(simWorkload{
		points: paperPoints(fig11Archs...),
		warm:   []point{{"SR2", gscalar.Baseline, 1, loopSerial}},
		perRep: func(rs []pointResult) {
			ipcw, ipc, ok := paperGaps(byKey(rs))
			if ok {
				r.expect(ipcw == r.ref.PaperGapIPCW && ipc == r.ref.PaperGapIPC, "paper-sweep",
					"Figure 11 gaps %v%%/%v%% differ from the reference %v%%/%v%%", ipcw, ipc, r.ref.PaperGapIPCW, r.ref.PaperGapIPC)
			}
		},
		character: func() {
			ipc, share := r.counts["sm.ipc"], r.share("warp", "core")
			r.expect(ipc >= 5, "paper-sweep character", "chip IPC %.2f, want >= 5", ipc)
			r.expect(share > warpCoreSplit, "paper-sweep character", "warp+core share %.3f, want > %.2f", share, warpCoreSplit)
		},
	})
}

func runStallBound(r *run) error {
	return r.simulate(simWorkload{
		points: stallPoints(),
		warm:   []point{{"SR2", gscalar.GScalar, 1, loopSerial}},
		character: func() {
			ipc, smShare, wc := r.counts["sm.ipc"], r.share("sm"), r.share("warp", "core")
			r.expect(ipc < 1, "stall-bound character", "chip IPC %.2f, want < 1", ipc)
			r.expect(smShare >= 0.5, "stall-bound character", "sm share %.3f, want >= 0.5", smShare)
			r.expect(wc < warpCoreSplit, "stall-bound character", "warp+core share %.3f, want < %.2f", wc, warpCoreSplit)
		},
	})
}

// simWorkload is a fixed point list run repeatedly in a seed-dependent
// order.
type simWorkload struct {
	points []point
	warm   []point // warm-up points, run at the end of every set-up
	// perRep checks one whole repetition's results.
	perRep func([]pointResult)
	// character asserts, in a traced run, the property the workload was
	// chosen for.
	character func()
}

func (r *run) simulate(w simWorkload) error {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		// Resolve every spec and build its inputs once: what a user pays
		// before the first simulation.
		if _, err := timeBuilds(w.points); err != nil {
			return err
		}
		for _, p := range w.warm {
			if _, err := p.run(r.ctx, false); err != nil {
				return fmt.Errorf("warm-up %s: %w", p.key(), err)
			}
		}
		r.setupDone(t0)
	}
	err := r.timedLoop(func(i int, profiled bool) repStat {
		order := append([]point(nil), w.points...)
		shuffle(newRNG(r.o.seed, uint64(i)), order)
		var st repStat
		var rs []pointResult
		for _, p := range order {
			if pr, ok := r.runPoint(p, false); ok {
				rs = append(rs, pr)
				st.add(pr.ms, pr.res.WarpInsts, pr.res.Cycles)
			}
			r.betweenOps(&st)
		}
		if w.perRep != nil {
			w.perRep(rs)
		}
		return st
	})
	if err != nil {
		return err
	}
	if r.o.traced {
		// The simulated counts come from one more repetition with telemetry
		// on, outside both timed halves, so telemetry costs no layer time.
		r.counts = simCounts(r.runPoints(w.points, true))
		if r.buildMs, err = timeBuilds(w.points); err != nil {
			return err
		}
		r.checkReconciliation()
		if w.character != nil {
			w.character()
		}
	}
	return nil
}

// runPoints simulates the points one after another, checking each, and
// returns the results of those that completed.
func (r *run) runPoints(pts []point, telemetry bool) []pointResult {
	var rs []pointResult
	for _, p := range pts {
		if pr, ok := r.runPoint(p, telemetry); ok {
			rs = append(rs, pr)
		}
	}
	return rs
}

// runPoint simulates and checks one point; ok is false when it failed.
func (r *run) runPoint(p point, telemetry bool) (pointResult, bool) {
	r.attempted++
	pr, err := p.run(r.ctx, telemetry)
	if err != nil {
		r.fail(p.key(), "%v", err)
		return pr, false
	}
	r.check(pr)
	return pr, true
}

// simCounts sums the telemetry counters of one repetition's points into the
// simulated-count metrics.
func simCounts(rs []pointResult) map[string]float64 {
	sum := map[string]float64{}
	for _, pr := range rs {
		sum["sim.cycles"] += float64(pr.res.Cycles)
		if pr.metrics == nil {
			continue
		}
		for _, c := range pr.metrics.Counters {
			sum[c.Name] += c.Value
		}
	}
	return countsFrom(sum)
}

// countsFrom maps summed telemetry counter names onto the metric names.
func countsFrom(sum map[string]float64) map[string]float64 {
	return map[string]float64{
		"sim.cycles":           sum["sim.cycles"],
		"sm.warp_insts":        sum["sm.warp_insts"],
		"sm.ipc":               ratio(sum["sm.warp_insts"], sum["sim.cycles"]),
		"sm.stall_scoreboard":  sum["sm.stall_scoreboard"],
		"sm.stall_unit":        sum["sm.stall_unit"],
		"sm.stall_collector":   sum["sm.stall_collector"],
		"sm.injected_moves":    sum["sm.injected_moves"],
		"rf.main_grants":       sum["rf.main_grants"],
		"rf.bvr_grants":        sum["rf.bvr_grants"],
		"rf.scalarbank_grants": sum["rf.scalarbank_grants"],
		"mem.l1_accesses":      sum["sm.l1_accesses"],
		"mem.l1_hit_ratio":     1 - ratio(sum["sm.l1_misses"], sum["sm.l1_accesses"]),
		"mem.l2_accesses":      sum["sm.l2_accesses"],
		"mem.l2_hit_ratio":     1 - ratio(sum["sm.l2_misses"], sum["sm.l2_accesses"]),
		"mem.dram_tx":          sum["sm.dram_transactions"],
		"mem.mshr_merges":      sum["sm.mshr_merges"],
	}
}
