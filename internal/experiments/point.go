package experiments

import (
	"encoding/json"
	"strconv"
	"strings"

	"gscalar"
	"gscalar/internal/store"
)

// Point is one simulation point, the full input of a run: a chip
// configuration, an architecture, a workload spec and a scale. Every bar of
// the paper's figures is one. The experiment suite's memory store and
// gscalar-serve's directory store both keep a point's run under its Key, in
// the entry its Entry builds, so the two are interchangeable.
type Point struct {
	Config   gscalar.Config
	Arch     gscalar.Arch
	Workload string
	Scale    int
}

// Key is the point's canonical content identity,
// "configHash|scale=N|arch/workload". Two points share a key iff they
// denote the same simulation input, so a key can never be served a stale or
// foreign result.
//
// The workload component is canonicalized: a trace-backed spec
// ("trace:<path>") keys on "trace:" + the file's sha256 content hash, so the
// same capture is one entry under any path, and replacing the file behind a
// path can never be served the old file's result. A spec that fails to
// resolve (unknown name, unreadable trace) keys on its literal text; the
// simulation itself then reports the real error, and a key that never
// simulates successfully is never stored.
func (p Point) Key() string {
	wl := p.Workload
	if key, err := gscalar.CanonicalWorkloadKey(wl); err == nil {
		wl = key
	}
	return configHash(p.Config) + "|scale=" + strconv.Itoa(p.Scale) + "|" + p.Arch.String() + "/" + wl
}

// configHash is the configuration component of a point key: the content
// hash of the normalized config with the phased worker count collapsed.
// Hashing the normalized form makes a sparse config and its explicit
// equivalent — the same simulation input — share one key. Workers is
// collapsed to 0 (serial schedule) or 1 (phased schedule): every non-zero
// worker count is bit-identical by construction, so those points share an
// entry, while the two schedules — which may differ in the last bits of
// energy sums — stay apart.
func configHash(cfg gscalar.Config) string {
	cfg.Normalize()
	if cfg.Workers != 0 {
		cfg.Workers = 1
	}
	return cfg.Hash()
}

// FileName renders the point's architecture and workload spec as a safe
// file-name stem: path separators and the trace-spec colon are flattened, so
// a file named for a "trace:/dir/f.gstr" point still lands in the directory
// it is written to. Every per-point file — a captured trace, a telemetry
// export — is named with it.
func (p Point) FileName() string {
	clean := strings.NewReplacer("/", "_", "\\", "_", ":", "_").Replace(p.Workload)
	return p.Arch.String() + "_" + clean
}

// Entry turns a finished run of the point into its store entry: the
// point's identity, the Result as compact JSON and, when the run collected
// telemetry (m is non-nil), its metrics. Store.Do fills in the key.
func (p Point) Entry(res gscalar.Result, m *gscalar.Metrics) (store.Entry, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return store.Entry{}, err
	}
	e := store.Entry{
		ConfigHash: configHash(p.Config),
		Arch:       p.Arch.String(),
		Workload:   p.Workload,
		Scale:      p.Scale,
		Result:     b,
	}
	if m != nil {
		if e.Metrics, err = m.JSON(); err != nil {
			return store.Entry{}, err
		}
	}
	return e, nil
}
