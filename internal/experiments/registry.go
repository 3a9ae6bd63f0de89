package experiments

import (
	"fmt"
	"slices"
	"strings"

	"gscalar"
)

// Experiment is one table, figure or ablation of the evaluation, declared
// once: gscalar-experiments selects it by Name, prewarms its Archs and
// prints what Render returns.
type Experiment struct {
	Name string
	// Archs lists the public architectures whose memo points Render reads,
	// for every workload of the suite; Points prewarms exactly these.
	// Simulations outside the memo — the three custom SM architectures of
	// runCustomArch, Figure 10's warp-64 chip and the width sweep's
	// synthetic kernel — are not listed.
	Archs []gscalar.Arch
	// Render runs the experiment and returns its text table and its CSV,
	// or "" for an experiment that has no CSV.
	Render func(s *Suite) (text, csv string, err error)
}

// rows adapts a row-producing figure method and its renderers to Render.
// csv may be nil.
func rows[R any](run func(*Suite) ([]R, error), format, csv func([]R) string) func(*Suite) (string, string, error) {
	return func(s *Suite) (string, string, error) {
		rs, err := run(s)
		if err != nil {
			return "", "", err
		}
		c := ""
		if csv != nil {
			c = csv(rs)
		}
		return format(rs), c, nil
	}
}

var onlyGScalar = []gscalar.Arch{gscalar.GScalar}

// registry lists every experiment in print order: the static tables, the
// figures, the ablations and the extension sweeps.
var registry = []Experiment{
	{Name: "table1", Render: func(s *Suite) (string, string, error) {
		return FormatTable1(s.r.o.Config), "", nil
	}},
	{Name: "table2", Render: func(*Suite) (string, string, error) { return FormatTable2(), "", nil }},
	{Name: "table3", Render: func(*Suite) (string, string, error) { return FormatTable3(), "", nil }},
	{Name: "fig1", Archs: onlyGScalar, Render: rows((*Suite).Fig1, FormatFig1, Fig1CSV)},
	{Name: "fig8", Archs: onlyGScalar, Render: rows((*Suite).Fig8, FormatFig8, Fig8CSV)},
	{Name: "fig9", Archs: onlyGScalar, Render: rows((*Suite).Fig9, FormatFig9, Fig9CSV)},
	{Name: "fig10", Archs: onlyGScalar, Render: rows((*Suite).Fig10, FormatFig10, Fig10CSV)},
	{Name: "fig11",
		Archs:  []gscalar.Arch{gscalar.Baseline, gscalar.ALUScalar, gscalar.GScalarNoDiv, gscalar.GScalar},
		Render: rows((*Suite).Fig11, FormatFig11, Fig11CSV)},
	{Name: "fig12",
		Archs:  []gscalar.Arch{gscalar.Baseline, gscalar.ALUScalar, gscalar.WarpedCompression, gscalar.RVCOnly},
		Render: rows((*Suite).Fig12, FormatFig12, Fig12CSV)},
	{Name: "moves", Archs: onlyGScalar, Render: rows((*Suite).MoveOverhead, FormatMoveOverhead, MovesCSV)},
	{Name: "compiler", Archs: onlyGScalar, Render: rows((*Suite).CompilerScalar, FormatCompilerScalar, nil)},
	{Name: "half", Archs: []gscalar.Arch{gscalar.Baseline, gscalar.GScalar},
		Render: rows((*Suite).HalfAblation, FormatHalfAblation, nil)},
	{Name: "width", Render: rows(func(s *Suite) ([]WidthRow, error) { return s.WidthSweep([]int{8, 16, 24, 32}) },
		FormatWidthSweep, WidthCSV)},
	{Name: "sched", Archs: onlyGScalar, Render: rows((*Suite).SchedAblation, FormatSched, nil)},
	{Name: "scalarbank", Archs: []gscalar.Arch{gscalar.Baseline, gscalar.ALUScalar, gscalar.GScalar},
		Render: rows((*Suite).ScalarBankAblation, FormatScalarBank, nil)},
}

// Names lists every experiment name in print order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// Select returns the experiments name selects, in print order: every
// experiment for "all", else the one so named. Any other name is an error
// that lists the valid ones — a typo'd experiment must fail loudly, not
// silently prewarm (or render) nothing.
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return slices.Clone(registry), nil
	}
	for _, e := range registry {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (valid: all, %s)",
		name, strings.Join(Names(), ", "))
}

// Points returns the deduplicated memo points the given experiments read,
// architecture in presentation order, then the suite's workload order.
func (s *Suite) Points(exps []Experiment) []Point {
	var pts []Point
	for _, a := range gscalar.AllArchs() {
		if !slices.ContainsFunc(exps, func(e Experiment) bool { return slices.Contains(e.Archs, a) }) {
			continue
		}
		for _, abbr := range s.r.o.Workloads {
			pts = append(pts, s.r.at(a, abbr))
		}
	}
	return pts
}
