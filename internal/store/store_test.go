package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAtomicWriteSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := AtomicWrite(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	assertNoTempFiles(t, dir)
}

// TestAtomicWriteFailureLeavesTargetIntact is the satellite bugfix's
// contract: an export that fails mid-write must neither truncate an existing
// file nor leave a partial new one behind.
func TestAtomicWriteFailureLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("render failed")
	err := AtomicWrite(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the path", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "previous" {
		t.Fatalf("target after failed write = %q, %v; want previous contents", data, err)
	}
	assertNoTempFiles(t, dir)
}

func TestAtomicWriteNewFileFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.json")
	err := AtomicWrite(path, func(w io.Writer) error { return errors.New("no") })
	if err == nil {
		t.Fatal("expected error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed write created %s", path)
	}
	assertNoTempFiles(t, dir)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Errorf("leftover temp file %s", de.Name())
		}
	}
}

func testEntry(key string) Entry {
	return Entry{
		Key:        key,
		ConfigHash: strings.SplitN(key, "|", 2)[0],
		Arch:       "gscalar",
		Workload:   "BP",
		Scale:      1,
		Result:     json.RawMessage(`{"cycles":42,"ipc":1.5}`),
		Metrics:    json.RawMessage(`{"arch":"gscalar"}`),
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "h1|scale=1|gscalar/BP"
	if _, ok, err := s.Get(key); ok || err != nil {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	want := testEntry(key)
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if !ok || err != nil {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if got.Key != want.Key || !bytes.Equal(got.Result, want.Result) || !bytes.Equal(got.Metrics, want.Metrics) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if s.Len() != 1 || !s.Contains(key) {
		t.Errorf("Len=%d Contains=%v", s.Len(), s.Contains(key))
	}
}

// TestStoreReopenRebuildsIndex is the crash-recovery property the sweep
// server relies on: a fresh process over the same directory serves every
// completed entry without recomputing anything.
func TestStoreReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"h1|scale=1|gscalar/BP",
		"h1|scale=1|baseline/BP",
		"h2|scale=3|gscalar/LBM",
	}
	for _, k := range keys {
		if err := s.Put(testEntry(k)); err != nil {
			t.Fatal(err)
		}
	}

	// Simulate the crash debris a killed writer can leave: a temp file (the
	// only artifact an interrupted AtomicWrite produces) and a corrupt
	// foreign JSON file.
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"dead-123"), []byte(`{"key":"zombie"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(keys) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(keys))
	}
	for _, k := range keys {
		e, ok, err := re.Get(k)
		if !ok || err != nil {
			t.Fatalf("reopened Get(%s): ok=%v err=%v", k, ok, err)
		}
		if !bytes.Equal(e.Result, testEntry(k).Result) {
			t.Errorf("reopened entry %s differs", k)
		}
	}
	if re.Contains("zombie") {
		t.Error("temp-file debris was indexed")
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"dead-123")); !os.IsNotExist(err) {
		t.Error("leftover temp file was not swept on Open")
	}
}

func TestStorePutOverwritesInPlace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "h1|scale=1|gscalar/BP"
	e := testEntry(key)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	e.Result = json.RawMessage(`{"cycles":43}`)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", s.Len())
	}
	got, _, _ := s.Get(key)
	if string(got.Result) != `{"cycles":43}` {
		t.Fatalf("overwrite not visible: %s", got.Result)
	}
}

func TestStoreRejectsKeylessEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Entry{}); err == nil {
		t.Fatal("Put of keyless entry succeeded")
	}
}

// waiters reports how many callers are joined to key's in-flight call.
func (g *group) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiters
	}
	return 0
}

func TestGroupDeduplicatesConcurrentCalls(t *testing.T) {
	var g group
	var runs atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	results := make([]Entry, callers)
	sharedCount := atomic.Int32{}
	do := func(i int) {
		defer wg.Done()
		v, shared, err := g.do(context.Background(), "k", func() (Entry, error) {
			runs.Add(1)
			close(started)
			<-release
			return Entry{Key: "value"}, nil
		})
		if err != nil {
			t.Errorf("do: %v", err)
		}
		if shared {
			sharedCount.Add(1)
		}
		results[i] = v
	}
	// The leader goes first and blocks inside fn; the joiners are spawned
	// only once it is registered, and the leader is released only once every
	// joiner is counted in the flight — so exactly one fn run is guaranteed,
	// not just likely.
	wg.Add(1)
	go do(0)
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go do(i)
	}
	for g.waiters("k") != callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v.Key != "value" {
			t.Errorf("caller %d got %+v", i, v)
		}
	}
	if sharedCount.Load() != callers-1 {
		t.Errorf("shared callers = %d, want %d", sharedCount.Load(), callers-1)
	}
	if len(g.calls) != 0 {
		t.Errorf("calls in flight after completion = %d", len(g.calls))
	}
}

func TestGroupWaiterObservesContext(t *testing.T) {
	var g group
	release := make(chan struct{})
	started := make(chan struct{})
	go g.do(context.Background(), "k", func() (Entry, error) {
		close(started)
		<-release
		return Entry{}, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.do(ctx, "k", func() (Entry, error) {
		t.Error("waiter ran fn")
		return Entry{}, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: shared=%v err=%v", shared, err)
	}
	close(release)
}

func TestGroupLeaderErrorPropagates(t *testing.T) {
	var g group
	boom := errors.New("boom")
	_, shared, err := g.do(context.Background(), "k", func() (Entry, error) { return Entry{}, boom })
	if shared || !errors.Is(err, boom) {
		t.Fatalf("leader: shared=%v err=%v", shared, err)
	}
	// The failed key is forgotten: a retry runs fresh.
	v, _, err := g.do(context.Background(), "k", func() (Entry, error) { return Entry{Key: "7"}, nil })
	if err != nil || v.Key != "7" {
		t.Fatalf("retry after failure: %+v, %v", v, err)
	}
}

// TestStoreDo pins the memo contract of Store.Do on both backends: how a
// call obtained its entry, and that fn runs exactly when nothing stored or in
// flight can answer the key.
func TestStoreDo(t *testing.T) {
	const key = "h|scale=1|gscalar/BP"
	result := json.RawMessage(`{"cycles":42}`)
	produce := func(runs *atomic.Int32) func() (Entry, error) {
		return func() (Entry, error) {
			runs.Add(1)
			return Entry{Arch: "gscalar", Result: result}, nil
		}
	}
	// blockedLeader starts a Do whose fn blocks until release is closed and
	// returns once that fn is running; the leader's outcome arrives on done.
	type outcome struct {
		how How
		err error
	}
	blockedLeader := func(s *Store, runs *atomic.Int32, release chan struct{}) chan outcome {
		started, done := make(chan struct{}), make(chan outcome, 1)
		go func() {
			_, how, err := s.Do(context.Background(), key, func() (Entry, error) {
				close(started)
				<-release
				return produce(runs)()
			})
			done <- outcome{how, err}
		}()
		<-started
		return done
	}

	cases := []struct {
		name string
		run  func(t *testing.T, s *Store)
	}{
		{"stored key skips fn", func(t *testing.T, s *Store) {
			if err := s.Put(Entry{Key: key, Result: result}); err != nil {
				t.Fatal(err)
			}
			e, how, err := s.Do(context.Background(), key, func() (Entry, error) {
				t.Error("fn ran for a stored key")
				return Entry{}, nil
			})
			if err != nil || how != Stored || !bytes.Equal(e.Result, result) {
				t.Fatalf("Do = %s, %v, %v; want the stored entry", e.Result, how, err)
			}
		}},
		{"concurrent misses run fn once", func(t *testing.T, s *Store) {
			var runs atomic.Int32
			release := make(chan struct{})
			leader := blockedLeader(s, &runs, release)
			const joiners = 7
			hows := make(chan How, joiners)
			for i := 0; i < joiners; i++ {
				go func() {
					e, how, err := s.Do(context.Background(), key, produce(&runs))
					if err != nil || !bytes.Equal(e.Result, result) {
						t.Errorf("joiner: %s, %v", e.Result, err)
					}
					hows <- how
				}()
			}
			for s.flight.waiters(key) != joiners {
				runtime.Gosched()
			}
			close(release)
			if o := <-leader; o.err != nil || o.how != Ran {
				t.Fatalf("leader: %v, %v; want Ran", o.how, o.err)
			}
			for i := 0; i < joiners; i++ {
				if how := <-hows; how != Joined {
					t.Errorf("joiner reported %v, want Joined", how)
				}
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("fn ran %d times, want 1", n)
			}
			if e, ok, err := s.Get(key); !ok || err != nil || e.Key != key || e.Arch != "gscalar" {
				t.Fatalf("stored entry: %+v, %v, %v", e, ok, err)
			}
		}},
		{"fn error stores nothing", func(t *testing.T, s *Store) {
			boom := errors.New("boom")
			_, how, err := s.Do(context.Background(), key, func() (Entry, error) { return Entry{}, boom })
			if !errors.Is(err, boom) || how != Ran {
				t.Fatalf("failed Do = %v, %v; want Ran, boom", how, err)
			}
			if s.Contains(key) || s.Len() != 0 {
				t.Fatal("a failed fn stored an entry")
			}
			var runs atomic.Int32
			if _, how, err := s.Do(context.Background(), key, produce(&runs)); err != nil || how != Ran || runs.Load() != 1 {
				t.Fatalf("retry = %v, %v after %d runs; want Ran after 1", how, err, runs.Load())
			}
		}},
		{"expired joiner gets ctx error", func(t *testing.T, s *Store) {
			var runs atomic.Int32
			release := make(chan struct{})
			leader := blockedLeader(s, &runs, release)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, how, err := s.Do(ctx, key, produce(&runs))
			if how != Joined || !errors.Is(err, context.Canceled) {
				t.Fatalf("expired joiner = %v, %v; want Joined, context.Canceled", how, err)
			}
			close(release)
			if o := <-leader; o.err != nil || o.how != Ran {
				t.Fatalf("leader: %v, %v; want Ran", o.how, o.err)
			}
			if runs.Load() != 1 || !s.Contains(key) {
				t.Fatalf("leader did not complete: %d runs, stored=%v", runs.Load(), s.Contains(key))
			}
		}},
		{"late caller finds the entry on the re-check", func(t *testing.T, s *Store) {
			var runs atomic.Int32
			fired := false
			testAfterMiss = func(string) {
				if fired {
					return
				}
				fired = true
				// The first caller has missed its lookup: a second call runs
				// fn, stores the entry and leaves the flight before the first
				// caller enters it.
				if _, how, err := s.Do(context.Background(), key, produce(&runs)); err != nil || how != Ran {
					t.Errorf("intervening call = %v, %v; want Ran", how, err)
				}
			}
			defer func() { testAfterMiss = nil }()
			e, how, err := s.Do(context.Background(), key, func() (Entry, error) {
				t.Error("fn ran although the re-check could answer")
				return Entry{}, nil
			})
			if err != nil || how != Stored || !bytes.Equal(e.Result, result) {
				t.Fatalf("late caller = %s, %v, %v; want Stored", e.Result, how, err)
			}
			if !fired || runs.Load() != 1 {
				t.Fatalf("hook fired=%v, fn runs=%d; want true, 1", fired, runs.Load())
			}
		}},
	}
	backends := []struct {
		name string
		open func(t *testing.T) *Store
	}{
		{"memory", func(*testing.T) *Store { return NewMemory() }},
		{"directory", func(t *testing.T) *Store {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, b := range backends {
		for _, c := range cases {
			t.Run(b.name+"/"+c.name, func(t *testing.T) { c.run(t, b.open(t)) })
		}
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("h|scale=%d|gscalar/BP", (g+i)%4)
				if _, ok, err := s.Get(key); err != nil {
					t.Errorf("Get: %v", err)
				} else if !ok {
					if err := s.Put(testEntry(key)); err != nil {
						t.Errorf("Put: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}

func TestFileNameIsContentAddressed(t *testing.T) {
	a, b := fileName("k1"), fileName("k2")
	if a == b {
		t.Fatal("distinct keys share a file name")
	}
	if fileName("k1") != a {
		t.Fatal("file name not deterministic")
	}
	if !strings.HasSuffix(a, entryExt) {
		t.Fatalf("file name %q lacks %s", a, entryExt)
	}
	if fmt.Sprintf("%s", a) == "k1"+entryExt {
		t.Fatal("file name must be the key's hash, not the raw key (keys contain '/')")
	}
}
