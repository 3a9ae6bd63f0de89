package store

import (
	"context"
	"sync"
)

// group deduplicates concurrent calls that share a key ("singleflight"): the
// first caller of a key becomes the leader and runs fn; callers arriving
// while the leader is in flight wait for its outcome instead of repeating
// the work. Once the leader finishes the key is forgotten, so a later call
// runs fresh — memoization is Store.Do's concern, which looks the key up
// again inside the flight.
//
// The zero group is ready to use.
type group struct {
	mu    sync.Mutex
	calls map[string]*call
}

type call struct {
	done    chan struct{} // closed when the leader finished
	waiters int           // callers that joined this flight (under group.mu)
	val     Entry
	err     error
}

// do executes fn once per key among concurrent callers. The leader's return
// values are handed to every waiter; shared reports whether this caller
// joined an in-flight leader rather than running fn itself. A waiter whose
// ctx expires stops waiting and returns ctx's error without disturbing the
// leader; the leader itself runs fn to completion regardless of ctx — fn is
// expected to observe cancellation on its own (simulation runs do, at their
// lifecycle checkpoints).
func (g *group) do(ctx context.Context, key string, fn func() (Entry, error)) (v Entry, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*call)
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return Entry{}, true, ctx.Err()
		}
	}
	c := &call{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
