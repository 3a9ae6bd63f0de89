package main

import (
	"time"
)

// Host-speed normalisation. The benchmark's host is shared: its speed
// drifts between phases up to 1.5x apart that last minutes, longer than a
// run, and flips between two states from one second to the next; a slow
// stretch slows every operation by about the same factor rather than
// stalling a few. It is not time taken from the process (the steal counter
// barely moves) but slower execution while it runs, so neither longer runs
// nor CPU time remove it. Instead an untraced run times a fixed probe
// between its operations — after every point or serve round, outside the
// measured time, and after each set-up — and scales each host-time metric
// by how much slower the probe ran than its nominal time. The probe is the
// benchmark's own code, never the simulator's, so a change to the
// simulator cannot move it.
//
// The probe is branchy integer work on registers. Over ten minutes of
// Figure 11 points on the 2-vCPU Xeon, through phases 1.48x apart, it
// tracked the simulator's slowdown best of four candidates: the simulator's
// per-30-s slowdown over the probe's spread 0.04-0.05 (quartile distance
// over median) where the raw slowdown spread 0.15. Probes that also walk a
// multi-megabyte array or allocate map nodes over-react to the phases that
// contend for memory, and spread 0.07 to 0.21.

// probeNominalMs is the probe's time in a fast phase on the host the
// benchmark was tuned on (a 2-vCPU Intel Xeon). It only sets the scale of
// the normalised metrics: they read as if measured on that host at that
// speed.
const probeNominalMs = 3.0

const probeSteps = 500_000

// hostProbe records the probe's timings.
type hostProbe struct {
	sink uint64
	ms   []float64
}

// sample runs the probe once and returns how long it took.
func (h *hostProbe) sample() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 < 3 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	h.sink += acc
	d := time.Since(t0)
	h.ms = append(h.ms, float64(d.Nanoseconds())/1e6)
	return d
}

// slowdown is the mean probe time over the nominal one: above 1 on a
// slower host. It is 1 when the probe never ran. The mean, not the median:
// the host's speed also flips between a fast and a slow state, about 1.35x
// apart, from one second to the next, so a run's probe times are bimodal. The
// median jumps to whichever state held more than half the samples; the mean
// follows the share of time in each, as the measured work does.
func (h *hostProbe) slowdown() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	var sum float64
	for _, v := range h.ms {
		sum += v
	}
	return sum / float64(len(h.ms)) / probeNominalMs
}
