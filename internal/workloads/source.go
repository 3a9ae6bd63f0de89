package workloads

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"gscalar/internal/gen"
	"gscalar/internal/trace"
)

// Source is the workload-source abstraction: anything that can materialise a
// runnable Instance. The builtin Table 2 registry and trace files both
// implement it, so every layer above (Session, experiments, serve, CLIs)
// resolves one spec syntax and never cares where instructions come from.
type Source interface {
	// Key is the canonical identity of the workload: the Table 2
	// abbreviation for builtins, "trace:" + the trace's content hash for
	// trace files. Two specs with equal Keys build identical instances, so
	// Key (together with config hash, arch and scale) is safe to use as a
	// result-store key.
	Key() string
	// Build constructs a fresh Instance. scale >= 1 grows builtin grids;
	// trace sources replay the captured launch exactly and ignore it.
	Build(scale int) (*Instance, error)
}

// TracePrefix marks a workload spec as a trace-file path: "trace:<path>".
const TracePrefix = "trace:"

// UnknownError reports a workload spec that names neither a builtin
// benchmark nor a trace file nor a generated kernel.
type UnknownError struct {
	Spec  string
	Valid []string // builtin abbreviations, Table 2 order
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("unknown workload %q (valid: %s; or %s<path> to replay a captured trace; or %s<dials> for a synthetic kernel)",
		e.Spec, strings.Join(e.Valid, " "), TracePrefix, GenPrefix)
}

// Resolve turns a workload spec into a Source. The grammar is ParseSpec's:
// a builtin Table 2 abbreviation ("HS"), a trace-file reference
// ("trace:<path>"), or a generated synthetic kernel ("gen:div=0.3,...").
// Trace files are decoded at resolve time — a missing, truncated or
// version-mismatched file fails here with the trace package's typed errors —
// and cached per path while the file is unchanged, so resolving the same
// trace across a sweep's points decodes it once. Gen dial errors
// (*gen.DialError) also surface here, so a bad spec fails before any
// simulation is attempted.
func Resolve(spec string) (Source, error) {
	ps, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	switch ps.Kind {
	case SpecTrace:
		t, err := loadTrace(ps.Path)
		if err != nil {
			return nil, err
		}
		return &traceSource{t: t}, nil
	case SpecGen:
		return &genSource{p: ps.Gen}, nil
	}
	w, ok := ByAbbr(ps.Abbr)
	if !ok {
		return nil, &UnknownError{Spec: spec, Valid: Abbrs()}
	}
	return builtinSource{w: w}, nil
}

// builtinSource adapts a registry Workload to the Source interface.
type builtinSource struct{ w Workload }

func (b builtinSource) Key() string                        { return b.w.Abbr }
func (b builtinSource) Build(scale int) (*Instance, error) { return b.w.Build(scale) }

// traceSource replays a captured trace: the Instance is rebuilt from the
// trace's static sections (program shared, launch and memory fresh per
// build), so concurrent replays from one Source never share mutable state.
// There is no golden-output check — the capture's provenance is the trace
// itself.
type traceSource struct{ t *trace.Trace }

func (s *traceSource) Key() string { return TracePrefix + s.t.Hash }

// Build materialises a replayable Instance. The captured launch is replayed
// exactly, so scale is ignored — a trace is one concrete run, not a
// parameterized generator.
func (s *traceSource) Build(scale int) (*Instance, error) {
	prog, err := s.t.Program()
	if err != nil {
		return nil, err
	}
	return &Instance{
		Prog:   prog,
		Launch: s.t.Launch(),
		Mem:    s.t.NewMemory(),
	}, nil
}

// genSource materialises synthetic kernels from a parsed dial vector.
// The Key is the canonical "gen:" spec — two spellings of the same dials
// share it — and every Build renders, assembles and fills memory afresh
// (deterministically), so concurrent builds never share mutable state.
type genSource struct{ p gen.Params }

func (g *genSource) Key() string { return GenPrefix + g.p.Canonical() }

// Build renders the synthetic kernel. There is no golden-output check:
// the workload's contract is its measured dynamic properties (held by the
// gendet property suite), not a functional result.
func (g *genSource) Build(scale int) (*Instance, error) {
	prog, lc, mem, err := gen.Build(g.p, scale)
	if err != nil {
		return nil, err
	}
	return &Instance{Prog: prog, Launch: lc, Mem: mem}, nil
}

// traceCache memoizes successful trace decodes per path, together with the
// file's stat at the time it was read. An entry is reused only while the
// path still names that same file with the same size and modification time,
// so a trace re-captured at the same path is decoded afresh rather than
// served stale. Failures are not cached: a capture may legitimately appear
// at the path later (the atomic writer renames the finished file into place).
var traceCache = struct {
	sync.Mutex
	m map[string]cachedTrace
}{m: map[string]cachedTrace{}}

type cachedTrace struct {
	info os.FileInfo
	t    *trace.Trace
}

func loadTrace(path string) (*trace.Trace, error) {
	// Stat before reading: if the file is replaced in between, the entry
	// records the older stat and the next lookup decodes again.
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	traceCache.Lock()
	e, ok := traceCache.m[path]
	traceCache.Unlock()
	if ok && sameFileVersion(e.info, info) {
		return e.t, nil
	}
	t, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	traceCache.Lock()
	if prev, ok := traceCache.m[path]; ok && sameFileVersion(prev.info, info) {
		t = prev.t // another goroutine won the decode race; share its Trace
	} else {
		traceCache.m[path] = cachedTrace{info: info, t: t}
	}
	traceCache.Unlock()
	return t, nil
}

// sameFileVersion reports whether two stats of a path see the same file
// contents: the same file (not another renamed over it), size and
// modification time.
func sameFileVersion(a, b os.FileInfo) bool {
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}
