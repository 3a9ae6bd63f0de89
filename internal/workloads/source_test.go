package workloads

import (
	"path/filepath"
	"sync"
	"testing"

	"gscalar/internal/trace"
)

// captureTo writes a trace of builtin abbr's input to path and returns the
// key a fresh decode of that file gives.
func captureTo(t *testing.T, abbr, path string) string {
	t.Helper()
	w, ok := ByAbbr(abbr)
	if !ok {
		t.Fatalf("no builtin %s", abbr)
	}
	inst, err := w.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	c := trace.NewCapture(trace.Meta{Workload: abbr, WarpSize: 32}, inst.Prog, inst.Launch, inst.Mem)
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return TracePrefix + tr.Hash
}

// TestResolveTraceConcurrentReplace resolves one trace path from several
// goroutines while the file is re-captured in place. Every resolve must see
// one of the two captures, never an error, and once the writes are done a
// resolve must see the last one.
func TestResolveTraceConcurrentReplace(t *testing.T) {
	dir := t.TempDir()
	hsKey := captureTo(t, "HS", filepath.Join(dir, "hs.gstr"))
	sr2Key := captureTo(t, "SR2", filepath.Join(dir, "sr2.gstr"))
	if hsKey == sr2Key {
		t.Fatal("HS and SR2 captures share a key")
	}
	path := filepath.Join(dir, "t.gstr")
	spec := TracePrefix + path
	captureTo(t, "HS", path)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				src, err := Resolve(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if k := src.Key(); k != hsKey && k != sr2Key {
					t.Errorf("resolved key %s is neither capture's", k)
					return
				}
			}
		}()
	}
	for _, abbr := range []string{"SR2", "HS", "SR2"} {
		captureTo(t, abbr, path)
	}
	close(stop)
	wg.Wait()

	src, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if src.Key() != sr2Key {
		t.Errorf("after the last re-capture (SR2), key = %s, want %s", src.Key(), sr2Key)
	}
}
