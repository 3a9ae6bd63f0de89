package experiments

import (
	"fmt"
	"strings"
	"testing"

	"gscalar"
)

// TestPointKeyPinned pins point keys as literal strings, so a store written
// by an earlier build keeps hitting: "configHash|scale=N|arch/workload", a
// generator spec keyed with its dials in canonical order, and any phased
// worker count keyed as one.
func TestPointKeyPinned(t *testing.T) {
	table1 := gscalar.DefaultConfig()
	workers7 := table1
	workers7.Workers = 7
	for _, tc := range []struct {
		p    Point
		want string
	}{
		{Point{table1, gscalar.GScalar, "HW", 1},
			"95581456d13790536ceade439ff5847cc92ce9938a169f7753de36b71a204696|scale=1|gscalar/HW"},
		{Point{table1, gscalar.Baseline, "gen:occ=0.2,mem=0.2", 1},
			"95581456d13790536ceade439ff5847cc92ce9938a169f7753de36b71a204696|scale=1|baseline/gen:mem=0.2,occ=0.2"},
		{Point{workers7, gscalar.GScalar, "HW", 2},
			"1953ed9eb729a5a3cb2699149f1a06a3c3a291eb79ee5d8204eea7bf124efa5e|scale=2|gscalar/HW"},
	} {
		if got := tc.p.Key(); got != tc.want {
			t.Errorf("%s/%s at scale %d, Workers %d: key %q, want %q",
				tc.p.Arch, tc.p.Workload, tc.p.Scale, tc.p.Config.Workers, got, tc.want)
		}
	}
}

// TestConfigKeyInvalidation checks that every semantically meaningful
// change to a point — a config field, the scale, the architecture — yields
// a distinct key, so a changed point can never be served a stale result,
// while the phased worker count (which never changes results) is collapsed
// so those points share one key.
func TestConfigKeyInvalidation(t *testing.T) {
	key := func(cfg gscalar.Config, scale int) string {
		return Point{Config: cfg, Arch: gscalar.GScalar, Workload: "HW", Scale: scale}.Key()
	}
	base := key(gscalar.DefaultConfig(), 1)

	mutations := map[string]func(*gscalar.Config){
		"NumSMs":      func(c *gscalar.Config) { c.NumSMs = 7 },
		"L1Bytes":     func(c *gscalar.Config) { c.L1Bytes = 32 << 10 },
		"L2Bytes":     func(c *gscalar.Config) { c.L2Bytes = 256 << 10 },
		"MemChannels": func(c *gscalar.Config) { c.MemChannels = 2 },
		"WarpSize":    func(c *gscalar.Config) { c.WarpSize = 64 },
		"MaxCycles":   func(c *gscalar.Config) { c.MaxCycles = 5 },
	}
	for name, mutate := range mutations {
		cfg := gscalar.DefaultConfig()
		mutate(&cfg)
		if k := key(cfg, 1); k == base {
			t.Errorf("changing %s did not change the point key", name)
		}
	}
	if k := key(gscalar.DefaultConfig(), 2); k == base {
		t.Error("changing scale did not change the point key")
	}
	if k := (Point{Config: gscalar.DefaultConfig(), Arch: gscalar.Baseline, Workload: "HW", Scale: 1}).Key(); k == base {
		t.Error("changing the architecture did not change the point key")
	}

	// Workers normalisation: 0 (serial schedule) is its own key; every
	// non-zero count maps to one shared key (bit-identical results).
	phased := func(n int) string {
		cfg := gscalar.DefaultConfig()
		cfg.Workers = n
		return key(cfg, 1)
	}
	if phased(1) != phased(8) || phased(1) != phased(-1) || phased(3) != phased(7) {
		t.Error("phased worker counts should share one point key")
	}
	if phased(1) == base {
		t.Error("phased and serial schedules must not share a point key")
	}
	if !strings.HasPrefix(base, gscalar.DefaultConfig().Hash()+"|scale=1|") || !strings.HasSuffix(base, "|gscalar/HW") {
		t.Errorf("key %q is not <config hash>|scale=1|gscalar/HW", base)
	}

	// The key hashes the normalized config: a sparse config denotes "Table 1
	// with these changes" and must share the entry of its explicit form.
	sparse := gscalar.Config{NumSMs: 7}
	explicit := gscalar.DefaultConfig()
	explicit.NumSMs = 7
	if key(sparse, 1) != key(explicit, 1) {
		t.Error("sparse config and its normalized equivalent should share a point key")
	}
}

// A point's key names its configuration by content hash, then its scale,
// architecture and workload.
func ExamplePoint_Key() {
	p := Point{Config: gscalar.DefaultConfig(), Arch: gscalar.GScalar, Workload: "HW", Scale: 1}
	fmt.Println(p.Key())
	// Output: 95581456d13790536ceade439ff5847cc92ce9938a169f7753de36b71a204696|scale=1|gscalar/HW
}
