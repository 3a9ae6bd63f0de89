package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gscalar"
)

// Point identifies one (architecture, workload) simulation a figure needs.
type Point struct {
	Arch gscalar.Arch
	Abbr string
}

// expArchs maps each experiment name to the public architectures its figure
// simulates through runner.run. Experiments absent from the map either run
// no full-chip points (the static tables), sweep non-default configurations
// (fig10, width, sched), or use custom SM overlays (parts of half and
// scalarbank) — those still simulate what Prewarm cannot cover, but every
// memoized point below is shared with them.
var expArchs = map[string][]gscalar.Arch{
	"fig1":       {gscalar.GScalar},
	"fig8":       {gscalar.GScalar},
	"fig9":       {gscalar.GScalar},
	"fig11":      {gscalar.Baseline, gscalar.ALUScalar, gscalar.GScalarNoDiv, gscalar.GScalar},
	"fig12":      {gscalar.Baseline, gscalar.ALUScalar, gscalar.WarpedCompression, gscalar.RVCOnly},
	"moves":      {gscalar.GScalar},
	"compiler":   {gscalar.GScalar},
	"half":       {gscalar.Baseline, gscalar.GScalar},
	"scalarbank": {gscalar.Baseline},
}

// experimentNames is the registry of every runnable experiment, in
// presentation order: the static tables, the figures, and the ablations.
// It is the single list Points and the CLI validate -exp names against;
// expArchs above covers the subset whose full-chip points Prewarm can
// simulate ahead of time.
var experimentNames = []string{
	"table1", "table2", "table3",
	"fig1", "fig8", "fig9", "fig10", "fig11", "fig12",
	"moves", "compiler", "half", "scalarbank", "width", "sched",
}

// ExperimentNames lists every valid experiment name (excluding the "all"
// pseudo-name, which expands to all of them).
func ExperimentNames() []string {
	out := make([]string, len(experimentNames))
	copy(out, experimentNames)
	return out
}

// ValidExperiment reports whether name is a runnable experiment ("all"
// included).
func ValidExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, n := range experimentNames {
		if n == name {
			return true
		}
	}
	return false
}

// errUnknownExperiment builds the error both Points and the CLIs report for
// a name that is not in the registry, listing what would have been valid —
// a typo'd experiment must fail loudly, not silently prewarm (or render)
// nothing.
func errUnknownExperiment(name string) error {
	return fmt.Errorf("experiments: unknown experiment %q (valid: all, %s)",
		name, strings.Join(experimentNames, ", "))
}

// Points returns the deduplicated (architecture, workload) points the named
// experiments will simulate, in a deterministic order (architecture in
// presentation order, then the suite's workload order). The name "all"
// expands to every experiment. A name outside the experiment registry is an
// error naming the valid choices; registered experiments without
// prewarmable full-chip points (the static tables, the sweeps with
// non-default configurations) are valid and simply contribute none.
func (s *Suite) Points(exps []string) ([]Point, error) {
	archSet := map[gscalar.Arch]bool{}
	for _, e := range exps {
		if !ValidExperiment(e) {
			return nil, errUnknownExperiment(e)
		}
		if e == "all" {
			for _, archs := range expArchs {
				for _, a := range archs {
					archSet[a] = true
				}
			}
			continue
		}
		for _, a := range expArchs[e] {
			archSet[a] = true
		}
	}
	archs := make([]gscalar.Arch, 0, len(archSet))
	for a := range archSet {
		archs = append(archs, a)
	}
	sort.Slice(archs, func(i, j int) bool { return archs[i] < archs[j] })

	var pts []Point
	for _, a := range archs {
		for _, abbr := range s.r.o.Workloads {
			pts = append(pts, Point{Arch: a, Abbr: abbr})
		}
	}
	return pts, nil
}

// Prewarm simulates the given points under the suite's own context; see
// PrewarmContext.
func (s *Suite) Prewarm(points []Point, par int) error {
	return s.PrewarmContext(s.r.ctx, points, par)
}

// PrewarmContext simulates the given points concurrently, at most par at a
// time, filling the suite's point memo. Figures rendered afterwards are
// served entirely from the memo, so their output is byte-identical to a
// serial run — prewarming only changes when the simulations happen, never
// what they produce (the phased simulation loop is deterministic, and each
// point is independent). With par <= 1 the points run serially in order.
//
// The fan-out is fail-fast: the first failure — or a cancellation of ctx,
// e.g. by a SIGINT handler — cancels the sibling runs at their next
// lifecycle checkpoint, and points not yet started are skipped. The error
// returned is the first genuine failure in point order; if every recorded
// error is just the propagated cancellation, the first of those is returned.
// Cancellation never corrupts the memo: points that completed before it
// remain stored and reusable.
func (s *Suite) PrewarmContext(ctx context.Context, points []Point, par int) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if par <= 1 || len(points) <= 1 {
		for _, p := range points {
			if _, err := s.r.runCtx(ctx, p.Arch, p.Abbr); err != nil {
				return err
			}
		}
		return nil
	}
	if par > len(points) {
		par = len(points)
	}
	errs := make([]error, len(points))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				_, errs[i] = s.r.runCtx(ctx, points[i].Arch, points[i].Abbr)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return first
}
