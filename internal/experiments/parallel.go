package experiments

import (
	"context"
	"errors"
	"sync"

	"gscalar"
)

// Point identifies one (architecture, workload) simulation a figure needs.
type Point struct {
	Arch gscalar.Arch
	Abbr string
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
