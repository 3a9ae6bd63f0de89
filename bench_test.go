package gscalar_test

// The schedule benchmark. The paper's tables and figures are regenerated by
// gscalar-experiments (-exp NAME), not by go test -bench; perfbench
// (BENCHMARK.json) is the end-to-end speed measurement.

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"gscalar"
)

// benchSchedule is one chip-loop schedule BenchmarkSchedules times.
type benchSchedule struct {
	name           string
	workers, epoch int
}

func (s benchSchedule) config() gscalar.Config {
	cfg := gscalar.DefaultConfig()
	cfg.Workers, cfg.EpochCycles = s.workers, s.epoch
	return cfg
}

// benchSchedules are the schedules compared. Each @2 schedule follows its
// @1 twin, which it must match bit for bit.
var benchSchedules = []benchSchedule{
	{"serial", 0, 0},
	{"phased@1", 1, 0},
	{"phased@2", 2, 0},
	{"relaxed@1", 1, 256},
	{"relaxed@2", 2, 256},
}

// BenchmarkSchedules times LBM and HS at scale 4 on gscalar under each
// schedule for 7 rounds, rotating which schedule runs first each round so
// that host drift spreads over all of them, and logs one row per schedule:
// the median [min, max] wall-clock seconds of a Session.RunWorkload, that
// median over serial's, the config hash and the host's CPU count. A
// schedule's later rounds must reproduce its first Result, and a schedule
// must produce the same Result at 1 and at 2 workers. Under -short it runs
// one round of HS at scale 1, which keeps the identity checks:
//
//	go test -run '^$' -bench Schedules -benchtime 1x .
//
// Each workload is a sub-benchmark, so that its rows stay within the
// testing package's ten-line cap on a benchmark's log. It writes no file:
// rows from a host with fewer idle cores than workers measure contention,
// not the schedule.
func BenchmarkSchedules(b *testing.B) {
	specs, scale, rounds := []string{"LBM", "HS"}, 4, 7
	if testing.Short() {
		specs, scale, rounds = []string{"HS"}, 1, 1
	}
	for _, spec := range specs {
		b.Run(fmt.Sprintf("%s×%d", spec, scale), func(b *testing.B) {
			for range b.N {
				benchScheduleRows(b, spec, scale, rounds)
			}
		})
	}
}

// benchScheduleRows runs one workload point for the given number of rounds
// (odd, so the median is a sample) under every schedule and logs the rows.
func benchScheduleRows(b *testing.B, spec string, scale, rounds int) {
	b.Helper()
	point := fmt.Sprintf("%s×%d", spec, scale)
	first := make([]gscalar.Result, len(benchSchedules))
	secs := make([][]float64, len(benchSchedules))
	for r := 0; r < rounds; r++ {
		for k := range benchSchedules {
			i := (r + k) % len(benchSchedules)
			s := benchSchedules[i]
			runtime.GC() // start every timed run from the same heap state
			t0 := time.Now()
			res, err := runWorkloadVia(b, s.config(), gscalar.GScalar, spec, scale)
			secs[i] = append(secs[i], time.Since(t0).Seconds())
			if err != nil {
				b.Fatalf("%s %s: %v", point, s.name, err)
			}
			res = stripExecMeta(res)
			if r == 0 {
				first[i] = res
			} else if !reflect.DeepEqual(res, first[i]) {
				b.Fatalf("%s %s: round %d's Result differs from round 0's", point, s.name, r)
			}
		}
	}
	for i, s := range benchSchedules {
		if s.workers == 2 && !reflect.DeepEqual(first[i], first[i-1]) {
			b.Fatalf("%s: %s's Result differs from %s's", point, s.name, benchSchedules[i-1].name)
		}
	}
	median := func(xs []float64) float64 { return xs[len(xs)/2] }
	for i := range secs {
		sort.Float64s(secs[i])
	}
	serial := median(secs[0])
	for i, s := range benchSchedules {
		xs := secs[i]
		b.Logf("%s %-9s %.3f s [%.3f, %.3f] over %d rounds, %.2f of serial; config %s; NumCPU %d, GOMAXPROCS %d",
			point, s.name, median(xs), xs[0], xs[len(xs)-1], len(xs), median(xs)/serial,
			s.config().Hash(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
}
