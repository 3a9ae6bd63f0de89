package experiments

import (
	"context"
	"strconv"
	"sync"

	"gscalar"
	"gscalar/internal/store"
)

// Cache memoizes simulation results keyed by (chip config, scale,
// architecture, workload). The evaluation's figures overlap heavily — Fig
// 1/8/9 share the G-Scalar runs, Fig 11/12 share the baselines, and the
// benchmark harness builds a fresh Suite per figure — so one process-wide
// cache lets every consumer reuse a point that has been simulated once.
// Any change to the chip configuration (or scale) alters the key, so stale
// results can never be served. Safe for concurrent use.
//
// Concurrent misses of the same key are deduplicated in flight (Do): under
// the Prewarm fan-out — or the sweep server's worker pool — the first
// requester of a key runs the simulation and everyone else joins its
// result, so each distinct key simulates exactly once no matter how the
// requests interleave. A joined waiter counts as a hit: the cache did spare
// it a simulation, even though the entry was not filled yet when it asked.
type Cache struct {
	mu           sync.Mutex
	m            map[string]any
	hits, misses uint64

	flight store.Group
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: make(map[string]any)} }

// sharedCache is the process-wide default every Suite uses.
var sharedCache = NewCache()

// configKey derives the cache key prefix from the configuration's canonical
// content hash (gscalar.Config.Hash) plus the workload scale. The hash is
// computed from the canonical JSON form — sorted keys, zero-valued fields
// omitted — so it is stable under Config field reordering and additions,
// and any semantically meaningful field change yields a distinct key: a
// changed config can never be served a stale result. Workers is normalised
// to 0 (serial schedule) or 1 (phased schedule) before hashing: every
// non-zero worker count is bit-identical by construction, so the cache
// shares those entries, while the two schedules — which may differ in the
// last bits of energy sums — stay separate.
func configKey(cfg gscalar.Config, scale int) string {
	return canonicalHash(cfg) + "|scale=" + strconv.Itoa(scale)
}

// canonicalHash is the configuration component of a point key: the content
// hash of the normalized config with the phased worker count collapsed.
func canonicalHash(cfg gscalar.Config) string {
	// Hash the normalized form: the run path normalizes before simulating,
	// so a sparse config and its explicit equivalent are the same input and
	// must share one entry.
	cfg.Normalize()
	if cfg.Workers != 0 {
		cfg.Workers = 1
	}
	return cfg.Hash()
}

// PointKey is the canonical content identity of one simulation point —
// "configHash|scale=N|arch/workload" — shared by this in-process cache and
// the disk-backed result store behind gscalar-serve (internal/store). Two
// points share a key iff they denote the same simulation input, so a key
// can never be served a stale or foreign result.
//
// The workload component is canonicalized: a trace-backed spec
// ("trace:<path>") keys on "trace:" + the file's sha256 content hash, so the
// same capture is one cache entry under any path, and replacing the file
// behind a path can never be served the old file's result. A spec that
// fails to resolve (unknown name, unreadable trace) keys on its literal
// text; the simulation itself then reports the real error, and a key that
// never simulates successfully is never stored.
func PointKey(cfg gscalar.Config, scale int, arch gscalar.Arch, abbr string) string {
	if key, err := gscalar.CanonicalWorkloadKey(abbr); err == nil {
		abbr = key
	}
	return store.Key(canonicalHash(cfg), scale, arch.String(), abbr)
}

// get returns the cached value for key, counting the hit or miss.
func (c *Cache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// put stores the value for key.
func (c *Cache) put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// Do returns the cached value for key, computing it via fn on a miss. At
// most one fn per key is in flight at a time: concurrent callers of a
// missing key join the first caller's computation instead of repeating it,
// and its successful value is cached for everyone. Accounting: a fn
// execution is a miss; a map hit or a successful join is a hit (the waiter
// was spared the work). fn's error is returned to the leader and every
// joined waiter, and nothing is cached — a later call retries. A waiter
// whose ctx expires stops waiting with ctx's error; the in-flight fn is
// unaffected (it observes its own context, e.g. at lifecycle checkpoints).
func (c *Cache) Do(ctx context.Context, key string, fn func() (any, error)) (any, error) {
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	v, shared, err := c.flight.Do(ctx, key, func() (any, error) {
		// Re-check under the flight's exclusivity: this caller may have lost
		// a race with a leader that has already completed and filled the map
		// (flights are forgotten once done, the map is forever).
		c.mu.Lock()
		if v, ok := c.m[key]; ok {
			c.hits++
			c.mu.Unlock()
			return v, nil
		}
		c.misses++
		c.mu.Unlock()
		v, err := fn()
		if err != nil {
			return nil, err
		}
		c.put(key, v)
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return v, nil
}

// Counters returns the accumulated hit/miss counts.
func (c *Cache) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of memoized results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
