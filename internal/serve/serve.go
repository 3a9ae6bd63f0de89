// Package serve implements the gscalar sweep server: a long-lived daemon
// that accepts simulation points (config × arch × workload × scale) over
// HTTP, runs them on a bounded worker pool, and memoizes every completed
// Result in a disk-backed content-addressed store (internal/store).
//
// The server's contract is "never simulate the same point twice". Each
// point makes one store.Do call, which answers it in one of three ways:
//
//   - A point whose key is already in the store completes instantly from
//     disk ("cached") — including points completed by an earlier process
//     that crashed or drained.
//   - Concurrent submissions of the same missing key are deduplicated in
//     flight: one simulation runs, every other point joins its result
//     ("joined").
//   - On graceful drain (SIGINT/SIGTERM), in-flight runs stop at their next
//     lifecycle checkpoint and every unfinished point is persisted to
//     pending.json inside the store directory; a new server over the same
//     directory re-enqueues them, and whatever did complete resolves as a
//     store hit.
//
// Keys are experiments.PointKey — the same canonical identity the
// experiment suite's memory store uses — so results are interchangeable
// across entry points and a key can never be served a stale or foreign
// result.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gscalar"
	"gscalar/internal/experiments"
	"gscalar/internal/store"
)

// Options configures a Server.
type Options struct {
	// Store is the disk-backed result store. Required.
	Store *store.Store
	// Workers is the simulation worker-pool size; <= 0 sizes it off
	// GOMAXPROCS. Each worker runs one point at a time, so this bounds the
	// number of concurrent simulations.
	Workers int
	// QueueDepth bounds the FIFO job queue (in points, not jobs); <= 0
	// defaults to 1024. Submissions that would overflow it are rejected
	// with 503 rather than blocking the HTTP handler.
	QueueDepth int
	// Telemetry enables per-run metric collection; collected metrics are
	// persisted in the store entry alongside the Result.
	Telemetry bool
	// ObserverStride is the simulated-cycle spacing of lifecycle
	// checkpoints (progress snapshots and cancellation checks) in every
	// run; 0 keeps the session default. It never alters a completed
	// Result, so it is not part of the point key.
	ObserverStride uint64
}

// PointSpec is one simulation point: the full input of a run.
type PointSpec struct {
	Config   gscalar.Config
	Arch     gscalar.Arch
	Workload string
	Scale    int
}

// Key returns the point's canonical store key.
func (p PointSpec) Key() string {
	return experiments.PointKey(p.Config, p.Scale, p.Arch, p.Workload)
}

type pointStatus int

const (
	pointQueued pointStatus = iota
	pointRunning
	pointDone
	pointFailed
	pointCancelled
)

func (s pointStatus) String() string {
	switch s {
	case pointQueued:
		return "queued"
	case pointRunning:
		return "running"
	case pointDone:
		return "done"
	case pointFailed:
		return "failed"
	case pointCancelled:
		return "cancelled"
	}
	return "unknown"
}

// pointState tracks one point of a job. All fields are guarded by Server.mu
// except spec and key, which are immutable after creation.
type pointState struct {
	spec PointSpec
	key  string

	status  pointStatus
	cached  bool // completed from the store without a fresh simulation
	joined  bool // joined an in-flight identical simulation
	partial bool // result is the partial prefix of a cancelled run
	result  json.RawMessage
	errMsg  string

	// cancelRequested marks an explicit per-job cancellation, as opposed to
	// a server drain (which re-queues the point as pending instead).
	cancelRequested bool
	cancel          context.CancelFunc // non-nil while running
}

// job is one submission: an ordered list of points.
type job struct {
	id        string
	recovered bool // re-enqueued from pending.json at startup
	points    []*pointState
}

type work struct {
	j   *job
	idx int
}

// Server owns the worker pool, the job table, and the result store.
type Server struct {
	opts Options
	st   *store.Store

	// runCtx parents every simulation; Drain cancels it so in-flight runs
	// stop at their next lifecycle checkpoint.
	runCtx  context.Context
	stopRun context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job ids in submission order
	nextID   int
	draining bool
	// progress holds the latest Progress snapshot of each in-flight
	// simulation, keyed by point key so joined waiters observe the
	// leader's stream.
	progress map[string]gscalar.Progress

	queue chan work
	wg    sync.WaitGroup

	sims      atomic.Uint64 // fresh simulations actually run
	storeHits atomic.Uint64 // points completed from the disk store (cached)
	joins     atomic.Uint64 // points that joined an in-flight simulation (joined)

	// Test hooks (nil in production).
	testBeforeRun  func(PointSpec)  // entered a fresh simulation
	testOnProgress func(key string) // after a progress snapshot landed
}

// Stats is a point-in-time snapshot of server counters.
type Stats struct {
	Workers      int    `json:"workers"`
	QueueLen     int    `json:"queue_len"`
	QueueCap     int    `json:"queue_cap"`
	Jobs         int    `json:"jobs"`
	StoreDir     string `json:"store_dir"`
	StoreEntries int    `json:"store_entries"`
	Simulations  uint64 `json:"simulations"`
	StoreHits    uint64 `json:"store_hits"`
	Joins        uint64 `json:"joins"`
	Draining     bool   `json:"draining"`
}

// New builds a Server over o.Store, re-enqueues any pending points a drained
// predecessor left in the store directory, and starts the worker pool.
func New(o Options) (*Server, error) {
	if o.Store == nil {
		return nil, errors.New("serve: Options.Store is required")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	s := &Server{
		opts:     o,
		st:       o.Store,
		jobs:     make(map[string]*job),
		progress: make(map[string]gscalar.Progress),
		queue:    make(chan work, o.QueueDepth),
	}
	s.runCtx, s.stopRun = context.WithCancel(context.Background())
	if err := s.loadPending(); err != nil {
		return nil, err
	}
	s.wg.Add(o.Workers)
	for i := 0; i < o.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit registers the points as one job and enqueues them FIFO. It fails
// without side effects when the server is draining or the queue cannot hold
// the job.
func (s *Server) Submit(specs []PointSpec) (*job, error) {
	return s.submit(specs, false)
}

func (s *Server) submit(specs []PointSpec, recovered bool) (*job, error) {
	if len(specs) == 0 {
		return nil, errors.New("serve: job has no points")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	// All sends happen under mu, so len(queue) cannot grow concurrently;
	// this capacity check is exact.
	if len(s.queue)+len(specs) > cap(s.queue) {
		return nil, errQueueFull
	}
	s.nextID++
	j := &job{id: "j" + strconv.Itoa(s.nextID), recovered: recovered}
	for _, sp := range specs {
		j.points = append(j.points, &pointState{spec: sp, key: sp.Key()})
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for i := range j.points {
		s.queue <- work{j: j, idx: i}
	}
	return j, nil
}

var (
	errDraining  = errors.New("serve: server is draining")
	errQueueFull = errors.New("serve: job queue is full")
)

// CancelJob cancels a job: queued points are marked cancelled, running
// points are interrupted at their next lifecycle checkpoint and report the
// partial prefix they had completed.
func (s *Server) CancelJob(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: no job %q", id)
	}
	var cancels []context.CancelFunc
	for _, p := range j.points {
		switch p.status {
		case pointQueued:
			p.status = pointCancelled
		case pointRunning:
			p.cancelRequested = true
			if p.cancel != nil {
				cancels = append(cancels, p.cancel)
			}
		}
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return nil
}

// worker drains the FIFO queue until it is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for w := range s.queue {
		s.runPoint(w.j, w.idx)
	}
}

// runPoint drives one queued point to a terminal state (or leaves it queued
// under drain, to be persisted as pending).
func (s *Server) runPoint(j *job, idx int) {
	p := j.points[idx]
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()
	s.mu.Lock()
	if p.status != pointQueued || s.draining {
		// Cancelled while queued, or draining: leave untouched. A still-
		// queued point under drain is persisted as pending by Drain.
		s.mu.Unlock()
		return
	}
	p.status = pointRunning
	p.cancel = cancel
	s.mu.Unlock()

	// The point was completed before — by this process, an earlier
	// duplicate submission, or a previous server life over the same store
	// directory — or it joins an identical in-flight run, or it simulates.
	e, how, err := s.st.Do(ctx, p.key, func() (store.Entry, error) {
		return s.simulate(ctx, p)
	})

	s.mu.Lock()
	p.cancel = nil
	if err == nil {
		p.status = pointDone
		p.result = e.Result
		p.cached = how == store.Stored
		p.joined = how == store.Joined
		if p.cached {
			s.storeHits.Add(1)
		} else if p.joined {
			s.joins.Add(1)
		}
		s.mu.Unlock()
		return
	}
	if !isCancel(err) {
		p.status = pointFailed
		p.errMsg = err.Error()
		s.mu.Unlock()
		return
	}
	// Cancellation: decide why.
	switch {
	case p.cancelRequested:
		// Explicit job cancel: terminal. The leader's partial prefix (if
		// this point was the leader) was recorded by simulate.
		p.status = pointCancelled
	case s.draining:
		// Drain: back to queued so Drain persists it as pending. Drop any
		// partial prefix — the point will be re-simulated from scratch.
		p.status = pointQueued
		p.partial = false
		p.result = nil
	case how == store.Joined && ctx.Err() == nil:
		// The in-flight leader we joined was cancelled, but this point was
		// not: retry by re-enqueueing (the next attempt becomes leader, or
		// hits the store).
		p.status = pointQueued
		if !s.enqueueLocked(j, idx) {
			p.status = pointFailed
			p.errMsg = "retry after leader cancellation: queue full"
		}
	default:
		p.status = pointCancelled
	}
	s.mu.Unlock()
}

// enqueueLocked re-queues a point without blocking; callers hold s.mu.
func (s *Server) enqueueLocked(j *job, idx int) bool {
	if s.draining {
		return true // stays queued; Drain persists it as pending
	}
	select {
	case s.queue <- work{j: j, idx: idx}:
		return true
	default:
		return false
	}
}

// PanicError is the error of a point whose build or run panicked: a
// simulator bug, or an input the simulator could not reject. The panic is
// confined to its point; the daemon and every other point carry on.
type PanicError struct {
	Value any    // the value the point panicked with
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: point panicked: %v\n%s", e.Value, e.Stack)
}

// simulate runs one fresh simulation of p as the flight leader for p.key
// and returns the entry for Store.Do to store. On cancellation it records
// the partial prefix on p (never in the store) and returns the context
// error. A panic in the point's build or run fails the point with a
// *PanicError, which Store.Do hands to every waiter that joined the flight.
func (s *Server) simulate(ctx context.Context, p *pointState) (e store.Entry, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.mu.Lock()
			delete(s.progress, p.key)
			s.mu.Unlock()
			e, err = store.Entry{}, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if hook := s.testBeforeRun; hook != nil {
		hook(p.spec)
	}
	s.sims.Add(1)
	sess, err := gscalar.NewSession(p.spec.Config, p.spec.Arch)
	if err != nil {
		return store.Entry{}, err
	}
	if s.opts.Telemetry {
		sess.Telemetry = gscalar.TelemetryOptions{Enabled: true}
	}
	sess.ObserverStride = s.opts.ObserverStride
	key := p.key
	sess.Observer = func(pr gscalar.Progress) {
		s.mu.Lock()
		s.progress[key] = pr
		s.mu.Unlock()
		if hook := s.testOnProgress; hook != nil {
			hook(key)
		}
	}
	res, err := sess.RunWorkload(ctx, p.spec.Workload, p.spec.Scale)
	s.mu.Lock()
	delete(s.progress, key)
	s.mu.Unlock()
	if err != nil {
		if isCancel(err) {
			// A cancelled run still returns the deterministic prefix it
			// completed; surface it on the leader's own point so its
			// status can report a well-defined partial state.
			if b, mErr := json.Marshal(res); mErr == nil {
				s.mu.Lock()
				p.result = b
				p.partial = true
				s.mu.Unlock()
			}
		}
		return store.Entry{}, err
	}
	resultJSON, err := json.Marshal(res)
	if err != nil {
		return store.Entry{}, err
	}
	e = store.Entry{
		ConfigHash: key[:strings.IndexByte(key, '|')],
		Arch:       p.spec.Arch.String(),
		Workload:   p.spec.Workload,
		Scale:      p.spec.Scale,
		Result:     resultJSON,
	}
	if m := sess.Metrics(); m != nil {
		if mb, err := m.JSON(); err == nil {
			e.Metrics = mb
		}
	}
	return e, nil
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Drain gracefully shuts the server down: new submissions are rejected,
// in-flight simulations are cancelled (they stop at their next lifecycle
// checkpoint), the worker pool exits, and every point that did not reach a
// terminal state is persisted as pending inside the store directory. It
// returns the number of pending points written.
func (s *Server) Drain() (int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return 0, errors.New("serve: already draining")
	}
	s.draining = true
	close(s.queue) // safe: all sends happen under mu with draining checked
	s.mu.Unlock()

	s.stopRun()
	s.wg.Wait()
	return s.persistPending()
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Workers:      s.opts.Workers,
		QueueLen:     len(s.queue),
		QueueCap:     cap(s.queue),
		Jobs:         len(s.jobs),
		StoreDir:     s.st.Dir(),
		StoreEntries: s.st.Len(),
		Simulations:  s.sims.Load(),
		StoreHits:    s.storeHits.Load(),
		Joins:        s.joins.Load(),
		Draining:     s.draining,
	}
}
