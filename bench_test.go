package gscalar_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (§5). Each Benchmark* target prints the corresponding
// table (paper reference values are annotated in the headers) and reports
// the headline number as a benchmark metric.
//
//	go test -bench Fig11 -benchmem               # one figure
//	go test -bench . -benchmem -timeout 0        # everything (an hour-plus)
//	go test -bench Fig9 -workloads BP,LBM        # a subset of Table 2
//
// Absolute cycles and Watts come from this repository's simulator, not the
// authors' GPGPU-Sim/GPUWattch setup; EXPERIMENTS.md records the
// paper-vs-measured comparison for every target below.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gscalar"
	"gscalar/internal/experiments"
)

var (
	benchWorkloads = flag.String("workloads", "", "comma-separated Table 2 subset for benches (default: all)")
	benchScale     = flag.Int("benchscale", 1, "workload scale factor for benches")
)

func benchSuite() *experiments.Suite {
	o := experiments.Options{Config: gscalar.DefaultConfig(), Scale: *benchScale}
	if *benchWorkloads != "" {
		o.Workloads = strings.Split(*benchWorkloads, ",")
	}
	return experiments.NewSuite(o)
}

// BenchmarkFig1DivergentFraction regenerates Figure 1: the fraction of
// divergent and divergent-scalar instructions (paper: 28 % divergent, 45 %
// of those divergent-scalar).
func BenchmarkFig1DivergentFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatFig1(rows))
			var d, ds float64
			for _, r := range rows {
				d += r.Divergent
				ds += r.DivergentScalar
			}
			b.ReportMetric(100*d/float64(len(rows)), "%divergent")
			b.ReportMetric(100*ds/float64(len(rows)), "%div-scalar")
		}
	}
}

// BenchmarkFig8RFAccessDistribution regenerates Figure 8: the register-file
// access distribution by value similarity (paper means: scalar 36 %, 3-byte
// 17 %, 2-byte 4 %, 1-byte 7 %).
func BenchmarkFig8RFAccessDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatFig8(rows))
			var sc float64
			for _, r := range rows {
				sc += r.Dist.Scalar
			}
			b.ReportMetric(100*sc/float64(len(rows)), "%scalar-reads")
		}
	}
}

// BenchmarkFig9ScalarEligibility regenerates Figure 9: instructions
// eligible for scalar execution, stacked by mechanism (paper means: ALU
// 22 % + SFU/mem 7 % + half 2 % + divergent 9 % = 40 %).
func BenchmarkFig9ScalarEligibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatFig9(rows))
			var tot float64
			for _, r := range rows {
				tot += r.E.Total()
			}
			b.ReportMetric(100*tot/float64(len(rows)), "%eligible")
		}
	}
}

// BenchmarkFig10WarpSizeSweep regenerates Figure 10: 16-thread-granularity
// scalar eligibility at warp sizes 32 and 64 (paper: the mean rises to ~5 %
// at warp size 64).
func BenchmarkFig10WarpSizeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatFig10(rows))
			var h64 float64
			for _, r := range rows {
				h64 += r.Half64
			}
			b.ReportMetric(100*h64/float64(len(rows)), "%quarter@64")
		}
	}
}

// BenchmarkFig11PowerEfficiency regenerates Figure 11: normalized IPC/W for
// ALU-scalar, G-Scalar w/o divergent, and G-Scalar, plus G-Scalar's IPC
// (paper: 1.24x vs baseline, 1.15x vs ALU-scalar, IPC -1.7 %; BP highest).
func BenchmarkFig11PowerEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatFig11(rows))
			var g, ipc float64
			for _, r := range rows {
				g += r.GScalar
				ipc += r.GScalarIPC
			}
			b.ReportMetric(g/float64(len(rows)), "xIPC/W")
			b.ReportMetric(ipc/float64(len(rows)), "xIPC")
		}
	}
}

// BenchmarkFig12RFPower regenerates Figure 12: normalized register-file
// dynamic power for the scalar-only RF, Warped-Compression (BDI) and the
// paper's byte-wise compression (paper: 0.63 / ~0.5 / 0.46; compression
// ratios 2.13 vs 2.17).
func BenchmarkFig12RFPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatFig12(rows))
			var ours float64
			for _, r := range rows {
				ours += r.Ours
			}
			b.ReportMetric(ours/float64(len(rows)), "xRFpower")
		}
	}
}

// BenchmarkTable1Config prints the simulator configuration against Table 1.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.FormatTable1(gscalar.DefaultConfig())
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkTable2Workloads prints the benchmark roster against Table 2.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.FormatTable2()
		if i == 0 {
			fmt.Println(out)
		}
	}
}

// BenchmarkTable3CodecCost prints the codec synthesis numbers (Table 3) and
// the derived per-SM cost (paper: +0.32 W / 1.6 %, +0.16 mm² / 0.7 %).
func BenchmarkTable3CodecCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.FormatTable3()
		if i == 0 {
			fmt.Println(out)
			c := experiments.CodecCost()
			b.ReportMetric(c.TotalPowerWPerSM, "W/SM")
			b.ReportMetric(c.TotalAreaMM2PerSM*1000, "mm2/SM(milli)")
		}
	}
}

// BenchmarkAblationMoveOverhead measures §3.3's injected decompress-move
// overhead (paper: ~2 % dynamic instructions for the hardware-assisted
// technique).
func BenchmarkAblationMoveOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.MoveOverhead()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatMoveOverhead(rows))
			var hw, ca float64
			for _, r := range rows {
				hw += r.Hardware
				ca += r.CompilerAssisted
			}
			b.ReportMetric(100*hw/float64(len(rows)), "%moves-hw")
			b.ReportMetric(100*ca/float64(len(rows)), "%moves-ca")
		}
	}
}

// BenchmarkAblationCompilerScalar measures §6's compile-time-only
// scalarization gap (paper: a compiler-assisted method captured 24 % fewer
// scalar instructions, mostly because loaded-value uniformity is invisible
// statically).
func BenchmarkAblationCompilerScalar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.CompilerScalar()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatCompilerScalar(rows))
		}
	}
}

// BenchmarkAblationHalfWarpScalar measures §4.3's half-warp scalar
// execution value against its 3 %→7 % register-file area cost.
func BenchmarkAblationHalfWarpScalar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.HalfAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatHalfAblation(rows))
		}
	}
}

// BenchmarkAblationScalarBank measures §4.1's single-scalar-bank burst
// bottleneck in the prior architecture, which G-Scalar's 16 per-bank BVR
// arrays avoid.
func BenchmarkAblationScalarBank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.ScalarBankAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(experiments.FormatScalarBank(rows))
		}
	}
}

// timedRun simulates one workload point and reports the wall-clock seconds
// it took alongside the Result.
func timedRun(b *testing.B, abbr string, workers int) (gscalar.Result, float64) {
	b.Helper()
	cfg := benchCfg(workers)
	t0 := time.Now()
	res, err := runWorkloadVia(b, cfg, gscalar.GScalar, abbr, *benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return res, time.Since(t0).Seconds()
}

// benchCfg is the exact configuration a timedRun point simulates; its
// canonical Hash is recorded in each snapshot row so a BENCH file can be
// matched unambiguously to the configuration that produced it.
func benchCfg(workers int) gscalar.Config {
	cfg := gscalar.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// parallelSnapshot is one row of BENCH_parallel.json: one parallel loop
// (phased per-cycle, or relaxed at a given epoch length) at one worker
// count, measured against the legacy serial loop on the same workload.
// host_cores matters — on a single-core host no loop can beat the serial
// one and speedup_vs_serial ~1/overhead is expected; the multi-worker rows
// exist so a multi-core host's numbers land in review without editing the
// harness. cycle_delta_pct (relaxed rows only) is the simulated-cycle
// deviation from the serial oracle; identical_results asserts bit-identity
// with the loop's own workers=1 run, which holds for every mode — for the
// relaxed loop worker count is pure execution parallelism and only
// EpochCycles is a model parameter.
type parallelSnapshot struct {
	Workload         string  `json:"workload"`
	Arch             string  `json:"arch"`
	ConfigHash       string  `json:"config_hash"`
	Scale            int     `json:"scale"`
	HostCores        int     `json:"host_cores"`
	Mode             string  `json:"mode"`
	EpochCycles      int     `json:"epoch_cycles,omitempty"`
	Workers          int     `json:"workers"`
	Cycles           uint64  `json:"cycles"`
	SerialSeconds    float64 `json:"serial_seconds"`
	ParallelSeconds  float64 `json:"parallel_seconds"`
	SpeedupVsSerial  float64 `json:"speedup_vs_serial"`
	CycleDeltaPct    float64 `json:"cycle_delta_pct,omitempty"`
	IdenticalResults bool    `json:"identical_results"`
}

// parallelBench is the BENCH_parallel.json document: a context note plus the
// measured rows.
type parallelBench struct {
	Note string             `json:"note"`
	Rows []parallelSnapshot `json:"rows"`
}

// timedRunEpoch is timedRun on the relaxed loop at the given epoch length.
func timedRunEpoch(b *testing.B, abbr string, workers, epoch int) (gscalar.Result, float64) {
	b.Helper()
	cfg := benchCfg(workers)
	cfg.EpochCycles = epoch
	t0 := time.Now()
	res, err := runWorkloadVia(b, cfg, gscalar.GScalar, abbr, *benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return res, time.Since(t0).Seconds()
}

// BenchmarkParallelSpeedup measures, for the three largest workloads (HS,
// LBM, MG), the legacy serial loop against the phased per-cycle loop and
// the relaxed epoch loop (epochs 64 and 256) at worker counts 1, 2, 4, 8,
// checks each loop's worker-count determinism on the way, records the
// relaxed rows' cycle deviation from the serial oracle, and writes every
// point to BENCH_parallel.json:
//
//	go test -bench ParallelSpeedup -benchtime 1x -run '^$'
//
// Each row is one -benchtime 1x run; perfbench (BENCHMARK.json) is the
// repeated, end-to-end measurement.
func BenchmarkParallelSpeedup(b *testing.B) {
	workloads := []string{"HS", "LBM", "MG"}
	epochs := []int{64, 256}
	cores := runtime.GOMAXPROCS(0)
	workerPoints := []int{1, 2, 4, 8}

	var snaps []parallelSnapshot
	var bestRelaxed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps = snaps[:0]
		bestRelaxed = 0
		for _, abbr := range workloads {
			serial, serialSec := timedRun(b, abbr, 0)
			row := func(mode string, epoch, workers int, res gscalar.Result, sec float64, hash string) parallelSnapshot {
				snap := parallelSnapshot{
					Workload:        abbr,
					Arch:            gscalar.GScalar.String(),
					ConfigHash:      hash,
					Scale:           *benchScale,
					HostCores:       cores,
					Mode:            mode,
					EpochCycles:     epoch,
					Workers:         workers,
					Cycles:          res.Cycles,
					SerialSeconds:   serialSec,
					ParallelSeconds: sec,
					SpeedupVsSerial: serialSec / sec,
				}
				if mode == "relaxed" {
					snap.CycleDeltaPct = math.Abs(float64(res.Cycles)-float64(serial.Cycles)) /
						float64(serial.Cycles) * 100
				}
				return snap
			}
			// Each loop's workers=1 run is its determinism reference; the
			// serial loop is a different machine (stores become visible
			// within the issuing cycle) and serves as the timing oracle.
			var phasedRef gscalar.Result
			relaxedRef := map[int]gscalar.Result{}
			for wi, workers := range workerPoints {
				par, parSec := timedRun(b, abbr, workers)
				if wi == 0 {
					phasedRef = par
				} else if !reflect.DeepEqual(stripExecMeta(phasedRef), stripExecMeta(par)) {
					b.Fatalf("%s: phased loop nondeterministic: workers=%d differs from workers=%d",
						abbr, workers, workerPoints[0])
				}
				snap := row("phased", 0, workers, par, parSec, benchCfg(workers).Hash())
				snap.IdenticalResults = true
				snaps = append(snaps, snap)

				for _, epoch := range epochs {
					rel, relSec := timedRunEpoch(b, abbr, workers, epoch)
					if wi == 0 {
						relaxedRef[epoch] = rel
					} else if !reflect.DeepEqual(stripExecMeta(relaxedRef[epoch]), stripExecMeta(rel)) {
						b.Fatalf("%s: relaxed loop (epoch=%d) nondeterministic: workers=%d differs from workers=%d",
							abbr, epoch, workers, workerPoints[0])
					}
					cfg := benchCfg(workers)
					cfg.EpochCycles = epoch
					snap := row("relaxed", epoch, workers, rel, relSec, cfg.Hash())
					snap.IdenticalResults = true
					snaps = append(snaps, snap)
					if snap.SpeedupVsSerial > bestRelaxed {
						bestRelaxed = snap.SpeedupVsSerial
					}
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(bestRelaxed, "best-relaxed-speedup")
	b.ReportMetric(float64(cores), "cores")
	doc := parallelBench{
		Note: "speedup_vs_serial is wall-clock of the legacy serial loop over the row's loop " +
			"on the same workload. host_cores=1 on this container: every loop shares one core, " +
			"so all speedups measure coordination overhead only (~1x is the ceiling) — the " +
			"workers=2/4/8 rows exist so a multi-core host's numbers land by rerunning " +
			"`make bench-parallel`, where the relaxed loop's once-per-epoch barrier is " +
			"designed to scale and the phased loop's per-cycle barrier is the contrast. " +
			"identical_results is bit-identity with the same loop at workers=1 (worker count " +
			"never changes simulation output in either mode); relaxed rows additionally " +
			"record cycle_delta_pct, the simulated-cycle deviation from the serial oracle " +
			"(bounded by the envelope asserted in relaxed_test.go).",
		Rows: snaps,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// cycles per wall second) on one benchmark — a performance regression
// guard for the simulator itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := gscalar.DefaultConfig()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := runWorkloadVia(b, cfg, gscalar.GScalar, "HS", 1)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}
