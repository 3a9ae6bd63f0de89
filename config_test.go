package gscalar

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

// TestValidateInvalid exercises the Table 1 structural invariants with one
// violation per case and checks the offending field is named.
func TestValidateInvalid(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }, "NumSMs"},
		{"negative clock", func(c *Config) { c.CoreClockHz = -1 }, "CoreClockHz"},
		{"zero warp size", func(c *Config) { c.WarpSize = 0 }, "WarpSize"},
		{"warp size over 64", func(c *Config) { c.WarpSize = 128 }, "WarpSize"},
		{"zero schedulers", func(c *Config) { c.SchedulersPerSM = 0 }, "SchedulersPerSM"},
		{"zero warps", func(c *Config) { c.MaxWarpsPerSM = 0 }, "MaxWarpsPerSM"},
		{"zero CTAs", func(c *Config) { c.MaxCTAsPerSM = 0 }, "MaxCTAsPerSM"},
		{"zero banks", func(c *Config) { c.RegFileBanks = 0 }, "RegFileBanks"},
		{"zero collectors", func(c *Config) { c.CollectorsPerSM = 0 }, "CollectorsPerSM"},
		{"collectors over 64", func(c *Config) { c.CollectorsPerSM = 65; c.RegFileBanks = 65 }, "CollectorsPerSM"},
		{"banks below collectors", func(c *Config) { c.RegFileBanks = 8; c.CollectorsPerSM = 16 }, "RegFileBanks"},
		{"width over warp size", func(c *Config) { c.SIMTWidth = 64 }, "SIMTWidth"},
		{"register file too small for warps", func(c *Config) { c.RegFileKB = 1 }, "RegFileKB"},
		{"zero L1", func(c *Config) { c.L1Bytes = -1 }, "L1Bytes"},
		{"zero L2", func(c *Config) { c.L2Bytes = -1 }, "L2Bytes"},
		{"zero channels", func(c *Config) { c.MemChannels = -1 }, "MemChannels"},
		{"negative epoch", func(c *Config) { c.EpochCycles = -64 }, "EpochCycles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("blamed field %q, want %q (%v)", ce.Field, tc.field, err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("message %q does not name the field", err)
			}
		})
	}
}

// TestValidateAcceptsSweepConfigs pins that the configurations the existing
// sweeps construct — warp size 64 with halved resident warps (Fig 10) and
// non-divisor SIMT widths (the §5.3 width sweep) — stay valid.
func TestValidateAcceptsSweepConfigs(t *testing.T) {
	ws64 := DefaultConfig()
	ws64.WarpSize = 64
	ws64.MaxWarpsPerSM = 24
	if err := ws64.Validate(); err != nil {
		t.Errorf("warp-size-64 sweep config rejected: %v", err)
	}
	for _, w := range []int{8, 16, 24, 32} {
		cfg := DefaultConfig()
		cfg.SIMTWidth = w
		if err := cfg.Validate(); err != nil {
			t.Errorf("SIMTWidth=%d rejected: %v", w, err)
		}
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	var c Config
	c.NumSMs = 7
	c.Normalize()
	want := DefaultConfig()
	want.NumSMs = 7
	if c != want {
		t.Errorf("Normalize() = %+v, want %+v", c, want)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("normalized sparse config invalid: %v", err)
	}

	// Zero stays meaningful for the non-structural fields.
	if c.MaxCycles != 0 || c.Workers != 0 {
		t.Error("Normalize touched MaxCycles/Workers")
	}

	full := DefaultConfig()
	full.Normalize()
	if full != DefaultConfig() {
		t.Error("Normalize changed an already-complete config")
	}
}

// TestNormalizeEpochCycles pins that Normalize leaves the schedule
// selection as given: EpochCycles 0 stays on the per-cycle schedules, and a
// positive epoch length, which alone selects the relaxed schedule, is kept
// and valid.
func TestNormalizeEpochCycles(t *testing.T) {
	for _, epoch := range []int{0, 128} {
		c := DefaultConfig()
		c.EpochCycles = epoch
		c.Normalize()
		if c.EpochCycles != epoch {
			t.Errorf("Normalize moved EpochCycles from %d to %d", epoch, c.EpochCycles)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("EpochCycles=%d: %v", epoch, err)
		}
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	cfg.Workers = 3
	cfg.EpochCycles = 256
	blob, err := cfg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ConfigFromJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Errorf("round trip: got %+v, want %+v", got, cfg)
	}
}

func TestConfigFromJSONSparse(t *testing.T) {
	got, err := ConfigFromJSON([]byte(`{"NumSMs": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.NumSMs = 3
	if got != want {
		t.Errorf("sparse decode = %+v, want Table 1 defaults with NumSMs=3", got)
	}
}

// TestConfigFromJSONRetiredIdleSkip loads two configs written by
// gscalar-sim -dump-config while chip-wide idle skipping still had its
// DisableIdleSkip knob, one with the knob off and one with it on; both also
// carry the retired "Relaxed": false. DisableIdleSkip is ignored with
// either value, so both load to Table 1 with its usual hash. Any other
// unknown key stays an error.
func TestConfigFromJSONRetiredIdleSkip(t *testing.T) {
	for _, name := range []string{"config-idleskip-false.json", "config-idleskip-true.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ConfigFromJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != DefaultConfig() {
			t.Errorf("%s loaded as %+v, want Table 1", name, got)
		}
		if h := got.Hash(); h != defaultConfigHash {
			t.Errorf("%s hashes to %s, want %s", name, h, defaultConfigHash)
		}
	}
	if _, err := ConfigFromJSON([]byte(`{"DisableIdleSkip": false, "NumSM": 3}`)); err == nil {
		t.Error("unknown field accepted next to the retired key")
	}
}

// TestConfigFromJSONRetiredRelaxed loads the retired Relaxed key, which
// once selected the relaxed schedule beside EpochCycles, to the simulation
// it named: "Relaxed": true without an epoch length takes the epoch length
// it used to default to, and beside an epoch length the key changes
// nothing, so each spelling loads to, and hashes as, its EpochCycles alone.
func TestConfigFromJSONRetiredRelaxed(t *testing.T) {
	cases := []struct {
		json  string
		epoch int
	}{
		{`{"Relaxed": true}`, 64},
		{`{"Relaxed": true, "EpochCycles": 128}`, 128},
		{`{"Relaxed": false, "EpochCycles": 128}`, 128},
		{`{"Relaxed": false}`, 0},
	}
	for _, tc := range cases {
		got, err := ConfigFromJSON([]byte(tc.json))
		if err != nil {
			t.Fatalf("%s: %v", tc.json, err)
		}
		want := DefaultConfig()
		want.EpochCycles = tc.epoch
		if got != want {
			t.Errorf("%s loaded as %+v, want Table 1 with EpochCycles=%d", tc.json, got, tc.epoch)
		}
	}
	if _, err := ConfigFromJSON([]byte(`{"Relaxed": true, "EpochCycles": -1}`)); err == nil {
		t.Error("negative epoch accepted beside the retired key")
	}
}

func TestConfigFromJSONRejects(t *testing.T) {
	if _, err := ConfigFromJSON([]byte(`{"NumSM": 3}`)); err == nil {
		t.Error("unknown field (typo) accepted")
	}
	if _, err := ConfigFromJSON([]byte(`{"WarpSize": 128}`)); err == nil {
		t.Error("invalid config accepted")
	} else {
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("invalid JSON config error %T is not a *ConfigError", err)
		}
	}
	if _, err := ConfigFromJSON([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// defaultConfigHash is the canonical content hash of the Table 1
// configuration. It is a compatibility contract: the point keys of the
// experiment suite's memo and of the result store behind gscalar-serve,
// and the perfbench report key on it, so it must change only when a
// Table 1 value (or the canonicalisation scheme itself) changes — never
// when Config gains or loses a field whose zero value this config keeps.
const defaultConfigHash = "95581456d13790536ceade439ff5847cc92ce9938a169f7753de36b71a204696"

func TestConfigHashGolden(t *testing.T) {
	if h := DefaultConfig().Hash(); h != defaultConfigHash {
		t.Errorf("DefaultConfig().Hash() = %s, want %s\n(if a Table 1 value deliberately changed, update the golden constant)", h, defaultConfigHash)
	}
}

func TestConfigHashProperties(t *testing.T) {
	base := DefaultConfig()
	if base.Hash() != base.Hash() {
		t.Fatal("hash is not deterministic")
	}

	// Every meaningful mutation moves the hash.
	mut := base
	mut.NumSMs = 14
	if mut.Hash() == base.Hash() {
		t.Error("NumSMs change kept the hash")
	}
	mut = base
	mut.MaxCycles = 100
	if mut.Hash() == base.Hash() {
		t.Error("MaxCycles change kept the hash")
	}
	mut = base
	mut.EpochCycles = 128
	if mut.Hash() == base.Hash() {
		t.Error("EpochCycles change kept the hash")
	}

	// Zero-valued fields are omitted from the canonical form, so a config
	// hashes the same whether a zero field is "absent" or explicitly zero —
	// the stability-under-field-addition guarantee.
	sparse := Config{NumSMs: 5}
	explicitZero := Config{NumSMs: 5, Workers: 0, MaxCycles: 0}
	if sparse.Hash() != explicitZero.Hash() {
		t.Error("explicit zero fields changed the hash")
	}
}

func TestNewSessionValidates(t *testing.T) {
	bad := DefaultConfig()
	// A zero field would be repaired by Normalize; a bad non-zero value must
	// be rejected.
	bad.WarpSize = 77
	if _, err := NewSession(bad, GScalar); err == nil {
		t.Fatal("NewSession accepted an invalid config")
	} else {
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("NewSession error %T is not a *ConfigError", err)
		}
	}

	s, err := NewSession(Config{}, GScalar)
	if err != nil {
		t.Fatalf("NewSession rejected the zero config: %v", err)
	}
	if s.Config() != DefaultConfig() {
		t.Errorf("session config = %+v, want normalized Table 1 defaults", s.Config())
	}
	if s.Arch() != GScalar {
		t.Errorf("session arch = %v", s.Arch())
	}
}
