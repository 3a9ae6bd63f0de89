package gscalar

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file makes Config the single validated source of truth for a run:
// Normalize fills Table 1 defaults into unset fields, Validate enforces the
// structural invariants every layer below assumes, JSON round-tripping backs
// the CLIs' -config/-dump-config flags, and Hash provides the canonical
// content identity that point keys (experiments.Point.Key) are built on.

// defaultEpochCycles is the epoch length a config carrying the retired
// Relaxed key without an EpochCycles loads with.
const defaultEpochCycles = 64

// Normalize fills zero-valued structural fields with their Table 1 defaults
// (DefaultConfig values), so a sparse configuration — e.g. a JSON file that
// only overrides NumSMs — denotes "Table 1 with these changes". MaxCycles,
// Workers and EpochCycles keep their zero values: zero is meaningful for
// each (default bound, serial schedule, per-cycle schedules).
func (c *Config) Normalize() {
	d := DefaultConfig()
	if c.NumSMs == 0 {
		c.NumSMs = d.NumSMs
	}
	if c.CoreClockHz == 0 {
		c.CoreClockHz = d.CoreClockHz
	}
	if c.WarpSize == 0 {
		c.WarpSize = d.WarpSize
	}
	if c.SchedulersPerSM == 0 {
		c.SchedulersPerSM = d.SchedulersPerSM
	}
	if c.MaxWarpsPerSM == 0 {
		c.MaxWarpsPerSM = d.MaxWarpsPerSM
	}
	if c.MaxCTAsPerSM == 0 {
		c.MaxCTAsPerSM = d.MaxCTAsPerSM
	}
	if c.RegFileKB == 0 {
		c.RegFileKB = d.RegFileKB
	}
	if c.RegFileBanks == 0 {
		c.RegFileBanks = d.RegFileBanks
	}
	if c.CollectorsPerSM == 0 {
		c.CollectorsPerSM = d.CollectorsPerSM
	}
	if c.SIMTWidth == 0 {
		c.SIMTWidth = d.SIMTWidth
	}
	if c.L1Bytes == 0 {
		c.L1Bytes = d.L1Bytes
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = d.L2Bytes
	}
	if c.MemChannels == 0 {
		c.MemChannels = d.MemChannels
	}
}

// ConfigError reports one violated configuration invariant.
type ConfigError struct {
	Field  string // the offending Config field
	Reason string
}

func (e *ConfigError) Error() string {
	return "gscalar: invalid config: " + e.Field + ": " + e.Reason
}

// Validate checks the structural invariants of the Table 1 configuration
// space that the simulator layers below assume. It validates the config as
// given — call Normalize first to fill defaults into a sparse config.
func (c Config) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if c.NumSMs < 1 {
		return bad("NumSMs", "need at least 1 SM, got %d", c.NumSMs)
	}
	if c.CoreClockHz <= 0 {
		return bad("CoreClockHz", "clock must be positive, got %g", c.CoreClockHz)
	}
	if c.WarpSize < 1 || c.WarpSize > 64 {
		return bad("WarpSize", "warp size must be in [1, 64] (active masks are 64-bit), got %d", c.WarpSize)
	}
	if c.SchedulersPerSM < 1 {
		return bad("SchedulersPerSM", "need at least 1 warp scheduler, got %d", c.SchedulersPerSM)
	}
	if c.MaxWarpsPerSM < 1 {
		return bad("MaxWarpsPerSM", "need at least 1 resident warp, got %d", c.MaxWarpsPerSM)
	}
	if perSched := (c.MaxWarpsPerSM + c.SchedulersPerSM - 1) / c.SchedulersPerSM; perSched > 64 {
		return bad("MaxWarpsPerSM", "%d warps over %d schedulers puts %d on one scheduler, at most 64 (a scheduler's warp sets are 64-bit masks)",
			c.MaxWarpsPerSM, c.SchedulersPerSM, perSched)
	}
	if c.MaxCTAsPerSM < 1 {
		return bad("MaxCTAsPerSM", "need at least 1 resident CTA, got %d", c.MaxCTAsPerSM)
	}
	if c.RegFileBanks < 1 {
		return bad("RegFileBanks", "need at least 1 register-file bank, got %d", c.RegFileBanks)
	}
	if c.CollectorsPerSM < 1 || c.CollectorsPerSM > 64 {
		return bad("CollectorsPerSM", "operand collectors must be in [1, 64] (collector sets are 64-bit masks), got %d", c.CollectorsPerSM)
	}
	if c.RegFileBanks < c.CollectorsPerSM {
		return bad("RegFileBanks", "%d banks cannot feed %d operand collectors (Table 1 pairs them 1:1; banks must be >= collectors)",
			c.RegFileBanks, c.CollectorsPerSM)
	}
	if c.SIMTWidth < 1 || c.SIMTWidth > c.WarpSize {
		return bad("SIMTWidth", "pipeline width must be in [1, WarpSize=%d], got %d", c.WarpSize, c.SIMTWidth)
	}
	if c.RegFileKB < 1 {
		return bad("RegFileKB", "need a non-empty register file, got %d KB", c.RegFileKB)
	}
	if minBytes := c.MaxWarpsPerSM * c.WarpSize * 4; c.RegFileKB<<10 < minBytes {
		return bad("RegFileKB", "%d KB cannot hold one 32-bit register for each of %d warps x %d lanes (need >= %d bytes)",
			c.RegFileKB, c.MaxWarpsPerSM, c.WarpSize, minBytes)
	}
	if c.L1Bytes < 1 {
		return bad("L1Bytes", "need a non-empty L1, got %d", c.L1Bytes)
	}
	if c.L2Bytes < 1 {
		return bad("L2Bytes", "need a non-empty L2, got %d", c.L2Bytes)
	}
	if c.MemChannels < 1 {
		return bad("MemChannels", "need at least 1 DRAM channel, got %d", c.MemChannels)
	}
	if c.EpochCycles < 0 {
		return bad("EpochCycles", "epoch length cannot be negative, got %d", c.EpochCycles)
	}
	return nil
}

// JSON renders the config as indented JSON, the format ConfigFromJSON
// accepts and the CLIs' -dump-config prints.
func (c Config) JSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// ConfigFromJSON parses, normalizes, and validates a JSON configuration.
// Unknown fields are rejected (they are almost always typos that would
// otherwise silently fall back to defaults); absent fields take their
// Table 1 defaults via Normalize. Two retired keys are the exceptions, so
// that every config dumped by an earlier revision loads to the same
// simulation. DisableIdleSkip is accepted with either value and ignored,
// since chip-wide idle skipping never changed a simulated result. Relaxed
// once selected the relaxed schedule beside EpochCycles; a positive
// EpochCycles alone selects it now, and "Relaxed": true without an epoch
// length loads with the epoch length it used to default to.
func ConfigFromJSON(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var in struct {
		Config
		DisableIdleSkip bool // retired
		Relaxed         bool // retired
	}
	if err := dec.Decode(&in); err != nil {
		return Config{}, fmt.Errorf("gscalar: parsing config JSON: %w", err)
	}
	c := in.Config
	if in.Relaxed && c.EpochCycles == 0 {
		c.EpochCycles = defaultEpochCycles
	}
	c.Normalize()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Hash returns the canonical content hash of the configuration: the
// hex-encoded SHA-256 of its canonical form. The canonical form is the
// JSON object with keys sorted and zero-valued fields omitted, so the hash
// is independent of Go field declaration order and stable when new Config
// fields are added later (a config that does not use a new field keeps its
// identity). Two configs hash equal iff they denote the same simulation
// input, which is what point keys (experiments.Point.Key, shared by the
// experiment suite's memo and the sweep server's store) build on.
func (c Config) Hash() string {
	blob, err := json.Marshal(c)
	if err != nil {
		// Config is a struct of scalars; Marshal cannot fail.
		panic("gscalar: config hash: " + err.Error())
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		panic("gscalar: config hash: " + err.Error())
	}
	for k, v := range m {
		switch x := v.(type) {
		case float64:
			if x == 0 {
				delete(m, k)
			}
		case bool:
			if !x {
				delete(m, k)
			}
		case nil:
			delete(m, k)
		}
	}
	canon, err := json.Marshal(m) // map keys marshal sorted
	if err != nil {
		panic("gscalar: config hash: " + err.Error())
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}
