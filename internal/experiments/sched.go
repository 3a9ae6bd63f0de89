package experiments

import (
	"fmt"

	"gscalar"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
)

// SchedRow compares warp-scheduling policies under G-Scalar. The paper's
// configuration uses GPGPU-Sim's greedy-then-oldest scheduler; this
// ablation quantifies how sensitive the G-Scalar results are to that
// choice (a robustness check, not a paper figure).
type SchedRow struct {
	Abbr   string
	GTOIPC float64
	LRRIPC float64
	// Eligibility must be scheduler-independent (it is a property of the
	// value streams): recorded to verify that invariance.
	GTOElig, LRRElig float64
}

// SchedAblation compares every benchmark's G-Scalar memo point, which runs
// the default greedy-then-oldest scheduler, with a loose round-robin run.
func (s *Suite) SchedAblation() ([]SchedRow, error) {
	lrrArch := sm.GScalar()
	lrrArch.Sched = sm.SchedLRR
	var rows []SchedRow
	for _, spec := range s.r.o.Workloads {
		gto, err := s.r.run(gscalar.GScalar, spec)
		if err != nil {
			return nil, err
		}
		lrr, err := s.runCustomArch(spec, lrrArch)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SchedRow{
			Abbr:    spec,
			GTOIPC:  gto.IPC,
			LRRIPC:  lrr.Stats.IPC(),
			GTOElig: gto.Eligibility.Total(),
			LRRElig: float64(lrr.Stats.EligibleTotal()) / float64(lrr.Stats.WarpInsts),
		})
	}
	return rows, nil
}

// FormatSched renders the scheduler ablation table.
func FormatSched(rows []SchedRow) string {
	t := stats.NewTable("bench", "GTO IPC", "LRR IPC", "LRR/GTO", "elig GTO", "elig LRR")
	var ratio []float64
	for _, r := range rows {
		t.Row(r.Abbr,
			fmt.Sprintf("%.2f", r.GTOIPC),
			fmt.Sprintf("%.2f", r.LRRIPC),
			fmt.Sprintf("%.3f", r.LRRIPC/r.GTOIPC),
			pct(r.GTOElig), pct(r.LRRElig))
		ratio = append(ratio, r.LRRIPC/r.GTOIPC)
	}
	t.Row("MEAN", "", "", fmt.Sprintf("%.3f", mean(ratio)), "", "")
	return "Scheduler ablation: greedy-then-oldest vs loose round-robin under G-Scalar\n" +
		"(scalar eligibility is a value-stream property and must not depend on scheduling)\n" +
		t.String()
}
