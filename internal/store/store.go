// Package store is the content-addressed result store of simulation points,
// and the one memo every entry point keeps them in: gscalar-serve over a
// directory (Open), the experiment suite in memory (NewMemory). Do looks a
// point up, deduplicates concurrent misses of one key in a singleflight
// group, and stores what the single run produced.
//
// Each entry is one completed simulation point, addressed by the canonical
// key "configHash|scale=N|arch/workload" (experiments.Point.Key), derived
// from Config.Hash(), so two requests denote the same entry iff they denote
// the same simulation input. Keys are opaque strings to the store, and one
// function, experiments.Point.Entry, builds the entries both front ends
// store. A directory store keeps each entry as one JSON file named by the
// SHA-256 of its key, written atomically (temp file + rename); the
// in-memory index is rebuilt by scanning the directory on Open, so a
// restarted — or crashed — server re-serves every point that completed
// before it went down without re-simulating anything.
// All simulation loops are deterministic, which is what makes a stored blob
// equivalent to a fresh run: the stored Result bytes are the byte-identical
// answer a new simulation of that key would produce.
package store

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Entry is one stored simulation point: its key, the key's components,
// Result — the exact JSON bytes of the gscalar.Result, kept raw so a served
// repeat request is byte-identical to the run that produced it — and
// Metrics, the telemetry blob collected alongside it (gscalar.Metrics.JSON).
// The experiment suite always fills Metrics, because its ablations read
// counters from it; gscalar-serve fills it when started with telemetry on.
type Entry struct {
	Key        string          `json:"key"`
	ConfigHash string          `json:"config_hash"`
	Arch       string          `json:"arch"`
	Workload   string          `json:"workload"`
	Scale      int             `json:"scale"`
	Result     json.RawMessage `json:"result"`
	Metrics    json.RawMessage `json:"metrics,omitempty"`
}

// Store is a content-addressed collection of Entries, in one directory or
// in memory. It is safe for concurrent use.
type Store struct {
	dir string // "" for a memory-only store

	mu    sync.RWMutex
	index map[string]string // key -> entry file path (directory store)
	mem   map[string]Entry  // key -> entry (memory-only store)

	flight group
}

// NewMemory returns an empty store that keeps its entries in memory only.
func NewMemory() *Store {
	return &Store{mem: make(map[string]Entry)}
}

// Open opens (creating if necessary) the store rooted at dir and rebuilds
// the key index by scanning it. Leftover temporary files from a crashed
// writer are removed; files that do not decode as entries are skipped — a
// foreign or corrupt file can hide a key but never corrupt served results,
// because entries are only ever written whole (see AtomicWrite).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, index: make(map[string]string)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name)) // crashed writer's leftovers
			continue
		}
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		path := filepath.Join(dir, name)
		e, err := readEntry(path)
		if err != nil || e.Key == "" {
			continue // not a store entry; leave it alone but serve nothing from it
		}
		s.index[e.Key] = path
	}
	return s, nil
}

// Dir returns the store's root directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Len returns the number of stored entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index) + len(s.mem)
}

// Contains reports whether key is stored, without reading the entry.
func (s *Store) Contains(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, onDisk := s.index[key]
	_, inMem := s.mem[key]
	return onDisk || inMem
}

// Get reads the entry stored under key. ok is false when the key is absent;
// a read or decode failure of a present key is returned as an error.
func (s *Store) Get(key string) (Entry, bool, error) {
	s.mu.RLock()
	e, inMem := s.mem[key]
	path, ok := s.index[key]
	s.mu.RUnlock()
	if inMem || !ok {
		return e, inMem, nil
	}
	e, err := readEntry(path)
	if err != nil {
		return Entry{}, false, fmt.Errorf("store: reading %s: %w", path, err)
	}
	return e, true, nil
}

// How reports how Do obtained an entry.
type How int

const (
	Ran    How = iota // this call ran fn and stored the entry it produced
	Stored            // the entry was already stored
	Joined            // a concurrent call ran fn; this call shared its outcome
)

// testAfterMiss is a test hook: when non-nil, Do calls it after a key's
// first lookup missed and before entering the flight.
var testAfterMiss func(key string)

// Do returns the entry stored under key, producing and storing it with fn
// when it is missing. Concurrent calls for one missing key run fn once: the
// first becomes the leader, looks the key up again (it may have missed the
// first lookup while an earlier flight completed and left), runs fn and
// Puts the entry under key; the rest join it and share its outcome. An error
// of fn stores nothing, so a later call runs fn again. A joined caller whose
// ctx expires returns ctx's error while the leader runs on — fn observes
// cancellation on its own. A call that joined reports Joined also when the
// shared outcome is an error.
func (s *Store) Do(ctx context.Context, key string, fn func() (Entry, error)) (Entry, How, error) {
	if e, ok, err := s.Get(key); err != nil || ok {
		return e, Stored, err
	}
	if testAfterMiss != nil {
		testAfterMiss(key)
	}
	how := Ran
	e, shared, err := s.flight.do(ctx, key, func() (Entry, error) {
		if e, ok, err := s.Get(key); err != nil || ok {
			how = Stored
			return e, err
		}
		e, err := fn()
		if err != nil {
			return Entry{}, err
		}
		e.Key = key
		return e, s.Put(e)
	})
	if shared {
		how = Joined
	}
	return e, how, err
}

// Put stores e under e.Key, atomically: concurrent readers observe either
// the previous entry or the complete new one, never a partial file. In a
// directory store the entry file is named by the SHA-256 of the key, so the
// layout is content-addressed and a re-Put of the same key overwrites in
// place.
func (s *Store) Put(e Entry) error {
	if e.Key == "" {
		return fmt.Errorf("store: entry has no key")
	}
	if s.dir == "" {
		s.mu.Lock()
		s.mem[e.Key] = e
		s.mu.Unlock()
		return nil
	}
	path := filepath.Join(s.dir, fileName(e.Key))
	// Plain (compact) encoding: an indenting encoder would reformat the raw
	// Result/Metrics bytes, breaking the byte-identity contract between a
	// stored blob and the marshal that produced it.
	err := AtomicWrite(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(e)
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.index[e.Key] = path
	s.mu.Unlock()
	return nil
}

// entryExt is the store entry file suffix.
const entryExt = ".json"

// fileName derives the content-addressed file name of a key.
func fileName(key string) string {
	return hashHex(key) + entryExt
}

func readEntry(path string) (Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, err
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, err
	}
	return e, nil
}
