// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) from simulator runs, for the gscalar-experiments
// command. The registry (registry.go) declares each experiment once.
//
// Each FigN function returns structured rows; each FormatFigN renders the
// aligned text table, annotated with the paper's reported values where the
// paper states them.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"gscalar"
	"gscalar/internal/stats"
	"gscalar/internal/store"
)

// Options configures an experiment sweep.
type Options struct {
	Config    gscalar.Config
	Scale     int      // workload scale factor (1 = default)
	Workloads []string // default: all of Table 2

	// OnMetrics, when non-nil, receives each freshly simulated point and
	// its telemetry: the metrics the memo entry keeps. A point answered
	// from the memo, or joined while another call simulated it, does not
	// refire it (no new run produced telemetry). Under the parallel prewarm
	// fan-out it is called concurrently and must be safe for that.
	OnMetrics func(p Point, m *gscalar.Metrics)
	// CaptureDir, when non-empty, writes a replayable trace of every
	// freshly simulated point to <CaptureDir>/<arch>_<workload>.gstr (each
	// file is written atomically; replay with -workload trace:<file>), under
	// whatever schedule Config selects. A point answered from the memo
	// writes no trace — it was not re-simulated.
	CaptureDir string
}

// defaults fills unset fields. Config is normalized like every other
// config: a sparse one denotes Table 1 with its set fields changed, and the
// zero Config is Table 1.
func (o Options) defaults() Options {
	o.Config.Normalize()
	if o.Scale < 1 {
		o.Scale = 1
	}
	if len(o.Workloads) == 0 {
		o.Workloads = gscalar.Workloads()
	}
	return o
}

// memo is the process-wide point memo every Suite shares. The evaluation's
// figures overlap heavily — Fig 1/8/9 share the G-Scalar runs, Fig 11/12
// the baselines — so a point simulated once is reused by every consumer in
// the process.
var memo = store.NewMemory()

// runner simulates the points of one option set through a point memo (by
// default the shared one), so figures sharing runs do not re-simulate and
// independent Suites over the same configuration reuse each other's runs.
// Each entry keeps its run's Result and telemetry, so a figure that needs a
// counter the Result does not carry reads it from the entry. It is safe for
// concurrent use, which is what the PrewarmContext fan-out relies on.
type runner struct {
	ctx  context.Context
	o    Options
	memo *store.Store
}

func newRunner(ctx context.Context, o Options) *runner {
	return &runner{ctx: ctx, o: o.defaults(), memo: memo}
}

// point returns the memo entry of p, simulating it on a miss. Do memoizes
// and deduplicates: if another goroutine — a PrewarmContext sibling, or
// another Suite over the same options — is already simulating this key,
// this call joins that run instead of repeating it, so each distinct point
// simulates at most once per process.
func (r *runner) point(ctx context.Context, p Point) (store.Entry, error) {
	e, _, err := r.memo.Do(ctx, p.Key(), func() (store.Entry, error) {
		// One Session per fresh point: the prewarm fan-out runs points
		// concurrently, and a session's telemetry is per-run state. The
		// session layer annotates escaping errors with the workload and
		// architecture; a cancelled run's partial result is never stored.
		s, err := gscalar.NewSession(p.Config, p.Arch)
		if err != nil {
			return store.Entry{}, err
		}
		s.Telemetry.Enabled = true
		if r.o.CaptureDir != "" {
			s.Capture.Path = filepath.Join(r.o.CaptureDir, p.FileName()+".gstr")
		}
		res, err := s.RunWorkload(ctx, p.Workload, p.Scale)
		if err != nil {
			return store.Entry{}, err
		}
		m := s.Metrics()
		e, err := p.Entry(res, m)
		if err == nil && r.o.OnMetrics != nil {
			r.o.OnMetrics(p, m)
		}
		return e, err
	})
	return e, err
}

// at returns the suite's point of one architecture and workload.
func (r *runner) at(arch gscalar.Arch, abbr string) Point {
	return Point{Config: r.o.Config, Arch: arch, Workload: abbr, Scale: r.o.Scale}
}

// run returns the Result of one point. The memo stores it as compact JSON
// and every read decodes it; Go's float formatting round-trips exactly, so
// a decoded Result equals the simulated one.
func (r *runner) run(arch gscalar.Arch, abbr string) (gscalar.Result, error) {
	e, err := r.point(r.ctx, r.at(arch, abbr))
	var res gscalar.Result
	if err == nil {
		err = json.Unmarshal(e.Result, &res)
	}
	return res, err
}

// counters returns the final telemetry counters of one point by name, each
// summed over its instances (SMs, DRAM channels). The counters are integer
// counts, so the sums are exact.
func (r *runner) counters(arch gscalar.Arch, abbr string) (map[string]float64, error) {
	e, err := r.point(r.ctx, r.at(arch, abbr))
	if err != nil {
		return nil, err
	}
	var m struct {
		Counters []gscalar.CounterValue `json:"counters"`
	}
	if err := json.Unmarshal(e.Metrics, &m); err != nil {
		return nil, err
	}
	sums := make(map[string]float64)
	for _, c := range m.Counters {
		sums[c.Name] += c.Value
	}
	return sums, nil
}

// Suite bundles a memoizing runner over one option set; create it once and
// call the figure methods.
type Suite struct{ r *runner }

// NewSuiteContext creates an experiment suite whose simulations observe ctx:
// cancelling it aborts the in-flight run at its next lifecycle checkpoint and
// fails any figure evaluated afterwards. Completed runs are unaffected —
// cancellation never corrupts the shared point memo.
func NewSuiteContext(ctx context.Context, o Options) *Suite {
	return &Suite{r: newRunner(ctx, o)}
}

// Workloads returns the benchmark list in effect.
func (s *Suite) Workloads() []string { return s.r.o.Workloads }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

func pct(v float64) string { return fmt.Sprintf("%5.1f%%", 100*v) }

// ---------------------------------------------------------------------------
// Figure 1 — divergent and divergent-scalar instruction fractions.
// ---------------------------------------------------------------------------

// Fig1Row is one benchmark's Figure 1 bar pair.
type Fig1Row struct {
	Abbr            string
	Divergent       float64 // divergent instructions / total
	DivergentScalar float64 // value-uniform divergent instructions / total
}

// Fig1 measures the Figure 1 characterisation on the G-Scalar run.
func (s *Suite) Fig1() ([]Fig1Row, error) {
	var rows []Fig1Row
	for _, abbr := range s.r.o.Workloads {
		res, err := s.r.run(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig1Row{abbr, res.FracDivergent, res.FracDivergentScalar})
	}
	return rows, nil
}

// FormatFig1 renders the Figure 1 table.
func FormatFig1(rows []Fig1Row) string {
	t := stats.NewTable("bench", "divergent", "div-scalar", "div-scalar/divergent")
	var d, ds []float64
	for _, r := range rows {
		frac := 0.0
		if r.Divergent > 0 {
			frac = r.DivergentScalar / r.Divergent
		}
		t.Row(r.Abbr, pct(r.Divergent), pct(r.DivergentScalar), pct(frac))
		d = append(d, r.Divergent)
		ds = append(ds, r.DivergentScalar)
	}
	md, mds := mean(d), mean(ds)
	ratio := 0.0
	if md > 0 {
		ratio = mds / md
	}
	t.Row("MEAN", pct(md), pct(mds), pct(ratio))
	return "Figure 1: divergent instructions and divergent scalar instructions\n" +
		"(paper: 28% of instructions divergent; 45% of divergent are divergent-scalar)\n" +
		t.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — RF access distribution by operand-value similarity.
// ---------------------------------------------------------------------------

// Fig8Row is one benchmark's register-read class mix.
type Fig8Row struct {
	Abbr string
	Dist gscalar.RFAccessDist
}

// Fig8 measures the register-read distribution on the byte-wise-compressed
// register file (scalar execution does not change read classes).
func (s *Suite) Fig8() ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, abbr := range s.r.o.Workloads {
		res, err := s.r.run(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{abbr, res.RFAccess})
	}
	return rows, nil
}

// FormatFig8 renders the Figure 8 table.
func FormatFig8(rows []Fig8Row) string {
	t := stats.NewTable("bench", "scalar", "3-byte", "2-byte", "1-byte", "none", "divergent")
	var sc, b3, b2, b1 []float64
	for _, r := range rows {
		d := r.Dist
		t.Row(r.Abbr, pct(d.Scalar), pct(d.B3), pct(d.B2), pct(d.B1), pct(d.None), pct(d.Divergent))
		sc = append(sc, d.Scalar)
		b3 = append(b3, d.B3)
		b2 = append(b2, d.B2)
		b1 = append(b1, d.B1)
	}
	t.Row("MEAN", pct(mean(sc)), pct(mean(b3)), pct(mean(b2)), pct(mean(b1)), "", "")
	return "Figure 8: RF access distribution for operand values\n" +
		"(paper means: scalar 36%, 3-byte 17%, 2-byte 4%, 1-byte 7%)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Figure 9 — instructions eligible for scalar execution, stacked.
// ---------------------------------------------------------------------------

// Fig9Row is one benchmark's stacked eligibility decomposition.
type Fig9Row struct {
	Abbr string
	E    gscalar.Eligibility
}

// Fig9 measures scalar-execution eligibility under full G-Scalar.
func (s *Suite) Fig9() ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, abbr := range s.r.o.Workloads {
		res, err := s.r.run(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{abbr, res.Eligibility})
	}
	return rows, nil
}

// FormatFig9 renders the Figure 9 table.
func FormatFig9(rows []Fig9Row) string {
	t := stats.NewTable("bench", "ALU", "+SFU", "+mem", "+half", "+divergent", "total")
	var alu, sfumem, half, div, tot []float64
	for _, r := range rows {
		e := r.E
		t.Row(r.Abbr, pct(e.ALU), pct(e.SFU), pct(e.Mem), pct(e.Half), pct(e.Divergent), pct(e.Total()))
		alu = append(alu, e.ALU)
		sfumem = append(sfumem, e.SFU+e.Mem)
		half = append(half, e.Half)
		div = append(div, e.Divergent)
		tot = append(tot, e.Total())
	}
	t.Row("MEAN", pct(mean(alu)), pct(mean(sfumem)), "", pct(mean(half)), pct(mean(div)), pct(mean(tot)))
	return "Figure 9: instructions eligible for scalar execution\n" +
		"(paper means: ALU 22%, +SFU/mem 7%, +half 2%, +divergent 9% => 40%)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Figure 10 — half-scalar eligibility vs warp size.
// ---------------------------------------------------------------------------

// Fig10Row is one benchmark's warp-size sweep.
type Fig10Row struct {
	Abbr   string
	Half32 float64 // half-scalar at warp size 32
	Half64 float64 // "quarter-scalar" at warp size 64 (16-thread checks)
}

// Fig10 compares the 16-thread-granularity eligibility at warp sizes 32 and
// 64, each column on the suite's chip at that warp size (see halfScalarAt).
func (s *Suite) Fig10() ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, abbr := range s.r.o.Workloads {
		h32, err := s.halfScalarAt(32, abbr)
		if err != nil {
			return nil, err
		}
		h64, err := s.halfScalarAt(64, abbr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{abbr, h32, h64})
	}
	return rows, nil
}

// halfScalarAt returns a workload's half-scalar fraction on G-Scalar on the
// suite's chip at the given warp size, with as many warps per SM as keep
// the suite's resident threads. At the suite's own warp size that is the
// G-Scalar memo point (Figure 9's "+half" column). Any other warp size runs
// outside the memo: its telemetry and trace files would take the memo
// point's names.
func (s *Suite) halfScalarAt(warp int, abbr string) (float64, error) {
	c := s.r.o.Config
	if warp == c.WarpSize {
		res, err := s.r.run(gscalar.GScalar, abbr)
		return res.Eligibility.Half, err
	}
	c.MaxWarpsPerSM = c.MaxWarpsPerSM * c.WarpSize / warp
	c.WarpSize = warp
	sess, err := gscalar.NewSession(c, gscalar.GScalar)
	var res gscalar.Result
	if err == nil {
		res, err = sess.RunWorkload(s.r.ctx, abbr, s.r.o.Scale)
	}
	if err != nil {
		return 0, fmt.Errorf("warp size %d: %w", warp, err)
	}
	return res.Eligibility.Half, nil
}

// FormatFig10 renders the Figure 10 table.
func FormatFig10(rows []Fig10Row) string {
	t := stats.NewTable("bench", "half@32", "quarter@64")
	var h32, h64 []float64
	for _, r := range rows {
		t.Row(r.Abbr, pct(r.Half32), pct(r.Half64))
		h32 = append(h32, r.Half32)
		h64 = append(h64, r.Half64)
	}
	t.Row("MEAN", pct(mean(h32)), pct(mean(h64)))
	return "Figure 10: 16-thread-granularity scalar eligibility vs warp size\n" +
		"(paper: mean rises to ~5% at warp size 64)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Figure 11 — normalized power efficiency (IPC/W) and performance.
// ---------------------------------------------------------------------------

// Fig11Row is one benchmark's normalized efficiency across architectures.
type Fig11Row struct {
	Abbr          string
	ALUScalar     float64 // IPC/W vs baseline
	GScalarNoDiv  float64
	GScalar       float64
	GScalarIPC    float64 // IPC vs baseline (the 3-cycle latency cost)
	BaselinePower float64
}

// Fig11 runs the four Figure 11 architectures on every benchmark.
func (s *Suite) Fig11() ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, abbr := range s.r.o.Workloads {
		base, err := s.r.run(gscalar.Baseline, abbr)
		if err != nil {
			return nil, err
		}
		alu, err := s.r.run(gscalar.ALUScalar, abbr)
		if err != nil {
			return nil, err
		}
		nod, err := s.r.run(gscalar.GScalarNoDiv, abbr)
		if err != nil {
			return nil, err
		}
		full, err := s.r.run(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{
			Abbr:          abbr,
			ALUScalar:     alu.IPCPerW / base.IPCPerW,
			GScalarNoDiv:  nod.IPCPerW / base.IPCPerW,
			GScalar:       full.IPCPerW / base.IPCPerW,
			GScalarIPC:    full.IPC / base.IPC,
			BaselinePower: base.PowerW,
		})
	}
	return rows, nil
}

// FormatFig11 renders the Figure 11 table.
func FormatFig11(rows []Fig11Row) string {
	t := stats.NewTable("bench", "ALU-scalar", "G-Scalar w/o div", "G-Scalar", "G-Scalar IPC", "base W")
	var a, n, g, ipc []float64
	for _, r := range rows {
		t.Row(r.Abbr,
			fmt.Sprintf("%.3f", r.ALUScalar),
			fmt.Sprintf("%.3f", r.GScalarNoDiv),
			fmt.Sprintf("%.3f", r.GScalar),
			fmt.Sprintf("%.3f", r.GScalarIPC),
			fmt.Sprintf("%.1f", r.BaselinePower))
		a = append(a, r.ALUScalar)
		n = append(n, r.GScalarNoDiv)
		g = append(g, r.GScalar)
		ipc = append(ipc, r.GScalarIPC)
	}
	t.Row("MEAN",
		fmt.Sprintf("%.3f", mean(a)),
		fmt.Sprintf("%.3f", mean(n)),
		fmt.Sprintf("%.3f", mean(g)),
		fmt.Sprintf("%.3f", mean(ipc)), "")
	return "Figure 11: normalized power efficiency (IPC/W) and G-Scalar IPC\n" +
		"(paper means: G-Scalar 1.24x vs baseline, 1.15x vs ALU-scalar; IPC 0.983;\n" +
		" BP highest ~1.79x; LBM <1.20x; LC worst IPC)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Figure 12 — normalized RF dynamic power.
// ---------------------------------------------------------------------------

// Fig12Row is one benchmark's RF-power comparison.
type Fig12Row struct {
	Abbr       string
	ScalarOnly float64 // Gilani scalar RF vs baseline RF dynamic power
	WC         float64 // Warped-Compression (BDI)
	Ours       float64 // byte-wise compression
	OursRatio  float64 // compression ratio (ours)
	WCRatio    float64 // compression ratio (BDI)
}

// Fig12 compares register-file dynamic power across RF techniques.
func (s *Suite) Fig12() ([]Fig12Row, error) {
	var rows []Fig12Row
	for _, abbr := range s.r.o.Workloads {
		base, err := s.r.run(gscalar.Baseline, abbr)
		if err != nil {
			return nil, err
		}
		alu, err := s.r.run(gscalar.ALUScalar, abbr)
		if err != nil {
			return nil, err
		}
		wc, err := s.r.run(gscalar.WarpedCompression, abbr)
		if err != nil {
			return nil, err
		}
		ours, err := s.r.run(gscalar.RVCOnly, abbr)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig12Row{
			Abbr:       abbr,
			ScalarOnly: alu.RFDynamicJ / base.RFDynamicJ,
			WC:         wc.RFDynamicJ / base.RFDynamicJ,
			Ours:       ours.RFDynamicJ / base.RFDynamicJ,
			OursRatio:  ours.CompressionRatio,
			WCRatio:    wc.CompressionRatio,
		})
	}
	return rows, nil
}

// FormatFig12 renders the Figure 12 table.
func FormatFig12(rows []Fig12Row) string {
	t := stats.NewTable("bench", "scalar-only", "W-C", "ours", "ratio(ours)", "ratio(BDI)")
	var so, wc, ours, ro, rw []float64
	for _, r := range rows {
		t.Row(r.Abbr,
			fmt.Sprintf("%.3f", r.ScalarOnly),
			fmt.Sprintf("%.3f", r.WC),
			fmt.Sprintf("%.3f", r.Ours),
			fmt.Sprintf("%.2f", r.OursRatio),
			fmt.Sprintf("%.2f", r.WCRatio))
		so = append(so, r.ScalarOnly)
		wc = append(wc, r.WC)
		ours = append(ours, r.Ours)
		ro = append(ro, r.OursRatio)
		rw = append(rw, r.WCRatio)
	}
	t.Row("MEAN",
		fmt.Sprintf("%.3f", mean(so)),
		fmt.Sprintf("%.3f", mean(wc)),
		fmt.Sprintf("%.3f", mean(ours)),
		fmt.Sprintf("%.2f", mean(ro)),
		fmt.Sprintf("%.2f", mean(rw)))
	return "Figure 12: normalized RF dynamic power\n" +
		"(paper means: scalar-only 0.63, ours 0.46; compression ratio ours 2.17 vs BDI 2.13)\n" +
		t.String()
}
