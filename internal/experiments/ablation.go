package experiments

import (
	"fmt"

	"gscalar"

	"gscalar/internal/gpu"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
	"gscalar/internal/workloads"
)

// chip lowers the suite's configuration to the internal chip config the
// way a gscalar.Session does, by conversion, so a point the ablations
// simulate outside the memo runs on the same chip as the memo points in its
// row.
func (s *Suite) chip() gpu.Config {
	c := s.r.o.Config
	c.Normalize()
	return gpu.Config{Config: sm.Config(c)}
}

// runCustomArch runs one workload spec on the suite's chip under an
// SM-level architecture the public Arch enum does not expose, and checks a
// builtin's output against its golden model, as Session.RunWorkload does.
// Three ablation columns need one: G-Scalar without half-warp support
// (§4.3), with compiler-assisted move elision (§3.3), and under loose
// round-robin scheduling. Every public-architecture point comes from the
// memo instead. It does not memoize: a sweep never asks for one
// custom-architecture point twice.
func (s *Suite) runCustomArch(spec string, arch sm.Arch) (gpu.Result, error) {
	src, err := workloads.Resolve(spec)
	if err != nil {
		return gpu.Result{}, err
	}
	inst, err := src.Build(s.r.o.Scale)
	if err != nil {
		return gpu.Result{}, err
	}
	res, err := gpu.RunContext(s.r.ctx, s.chip(), arch, inst.Prog, inst.Launch, inst.Mem)
	if err != nil {
		return gpu.Result{}, err
	}
	if inst.Check != nil {
		if err := inst.Check(); err != nil {
			return gpu.Result{}, fmt.Errorf("%s: %w", spec, err)
		}
	}
	return res, nil
}

// HalfAblationRow quantifies §4.3's design choice: half-warp scalar
// execution (and its second BVR/EBR set) versus plain G-Scalar.
type HalfAblationRow struct {
	Abbr        string
	WithHalf    float64 // IPC/W vs baseline
	WithoutHalf float64
	HalfElig    float64 // half-scalar instruction fraction
}

// HalfAblation runs G-Scalar with and without half-warp support.
func (s *Suite) HalfAblation() ([]HalfAblationRow, error) {
	noHalf := sm.GScalar()
	noHalf.F.HalfScalar = false
	noHalf.F.HalfCompression = false

	var rows []HalfAblationRow
	for _, abbr := range s.r.o.Workloads {
		base, err := s.r.run(gscalar.Baseline, abbr)
		if err != nil {
			return nil, err
		}
		with, err := s.r.run(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		without, err := s.runCustomArch(abbr, noHalf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HalfAblationRow{
			Abbr:        abbr,
			WithHalf:    with.IPCPerW / base.IPCPerW,
			WithoutHalf: without.IPCPerW / base.IPCPerW,
			HalfElig:    with.Eligibility.Half,
		})
	}
	return rows, nil
}

// FormatHalfAblation renders the §4.3 ablation table.
func FormatHalfAblation(rows []HalfAblationRow) string {
	t := stats.NewTable("bench", "with half", "without half", "half-eligible")
	var w, wo []float64
	for _, r := range rows {
		t.Row(r.Abbr,
			pctx(r.WithHalf), pctx(r.WithoutHalf), pct(r.HalfElig))
		w = append(w, r.WithHalf)
		wo = append(wo, r.WithoutHalf)
	}
	t.Row("MEAN", pctx(mean(w)), pctx(mean(wo)), "")
	return "Section 4.3 ablation: half-warp scalar execution\n" +
		"(hardware cost: second BVR/EBR set grows the RF from 3% to 7%)\n" + t.String()
}

func pctx(v float64) string { return fmt.Sprintf("%.3f", v) }

// ScalarBankRow quantifies §4.1's scalar-storage design choice: the prior
// architecture's single scalar bank serialises scalar-operand bursts, while
// G-Scalar's 16 per-bank BVR arrays do not.
type ScalarBankRow struct {
	Abbr              string
	ConflictsPerKInst float64 // ALU-scalar architecture
	GScalarConflicts  float64 // always 0 by construction
	ALUScalarIPC      float64 // vs baseline
}

// ScalarBankAblation measures the single-bank burst bottleneck from the
// ALU-scalar and G-Scalar memo points: their entries' counters give the
// conflicts per kilo-instruction, and the Results the IPC.
func (s *Suite) ScalarBankAblation() ([]ScalarBankRow, error) {
	perKInst := func(arch gscalar.Arch, abbr string) (float64, error) {
		c, err := s.r.counters(arch, abbr)
		if err != nil {
			return 0, err
		}
		return 1000 * c["sm.scalarbank_conflicts"] / c["sm.warp_insts"], nil
	}
	var rows []ScalarBankRow
	for _, abbr := range s.r.o.Workloads {
		base, err := s.r.run(gscalar.Baseline, abbr)
		if err != nil {
			return nil, err
		}
		alu, err := s.r.run(gscalar.ALUScalar, abbr)
		if err != nil {
			return nil, err
		}
		aluConflicts, err := perKInst(gscalar.ALUScalar, abbr)
		if err != nil {
			return nil, err
		}
		gsConflicts, err := perKInst(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalarBankRow{
			Abbr:              abbr,
			ConflictsPerKInst: aluConflicts,
			GScalarConflicts:  gsConflicts,
			ALUScalarIPC:      alu.IPC / base.IPC,
		})
	}
	return rows, nil
}

// FormatScalarBank renders the §4.1 ablation table.
func FormatScalarBank(rows []ScalarBankRow) string {
	t := stats.NewTable("bench", "1-bank conflicts/kinst", "G-Scalar conflicts", "ALU-scalar IPC")
	var c []float64
	for _, r := range rows {
		t.Row(r.Abbr, r.ConflictsPerKInst, r.GScalarConflicts, r.ALUScalarIPC)
		c = append(c, r.ConflictsPerKInst)
	}
	t.Row("MEAN", mean(c), "", "")
	return "Section 4.1 ablation: single scalar bank vs per-bank BVR arrays\n" +
		"(the prior architecture's scalar bursts serialise on its one bank)\n" + t.String()
}
