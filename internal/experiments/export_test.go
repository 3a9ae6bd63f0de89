package experiments

import "gscalar/internal/store"

// MemoEntry returns the suite's memo entry of p, simulating it on a miss, so
// the external tests can compare it with the entries other stores keep.
func (s *Suite) MemoEntry(p Point) (store.Entry, error) { return s.r.point(s.r.ctx, p) }
