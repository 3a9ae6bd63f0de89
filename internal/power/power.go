// Package power implements the event-energy accounting model that stands in
// for GPUWattch: every microarchitectural event (an SRAM array access, an
// execution-lane operation, a DRAM transaction, …) deposits energy into a
// per-component accumulator, and static power integrates over simulated
// time. The absolute calibration (calib.go) is chosen so the *baseline*
// architecture reproduces the component shares the paper quotes (execution
// units ≈24 % and register file ≈16 % of chip power on compute-intensive
// workloads; SFU ops cost 3–24× an ALU op), which is what anchors the
// paper's relative results.
package power

import (
	"fmt"
	"sort"
	"strings"

	"gscalar/internal/telemetry"
)

// Component identifies one energy-accounting bucket.
type Component int

// Components. RF-related buckets are split so Figure 12 (RF dynamic power)
// can be reported exactly: CompRFArray + CompRFCrossbar + CompRFBVR +
// CompRFScalarBank + CompCodec form the "register file" aggregate.
const (
	CompFrontEnd Component = iota // fetch, decode, schedule, scoreboard
	CompOperandCollector
	CompRFArray    // main SRAM array accesses
	CompRFCrossbar // bytes moved between banks and collectors
	CompRFBVR      // base-value/encoding-bit small-array accesses
	CompRFScalarBank
	CompCodec // compressor + decompressor dynamic
	CompExecALU
	CompExecSFU
	CompLSU // address generation + memory pipeline
	CompSharedMem
	CompL1
	CompL2
	CompNoC
	CompDRAM
	CompStatic
	NumComponents
)

var componentNames = [NumComponents]string{
	"frontend", "opcollector", "rf_array", "rf_crossbar", "rf_bvr",
	"rf_scalarbank", "codec", "exec_alu", "exec_sfu", "lsu",
	"sharedmem", "l1", "l2", "noc", "dram", "static",
}

// String returns the component's short name.
func (c Component) String() string {
	if c >= 0 && c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// ComponentNames returns the short names of every component in index order,
// for labelling per-component exports.
func ComponentNames() []string {
	names := make([]string, NumComponents)
	copy(names, componentNames[:])
	return names
}

// Meter accumulates energy per component. The zero value is ready to use.
type Meter struct {
	pJ [NumComponents]float64
}

// Add deposits pJ picojoules into component c.
func (m *Meter) Add(c Component, pJ float64) { m.pJ[c] += pJ }

// AddN deposits n × pJPerUnit into component c.
func (m *Meter) AddN(c Component, n int, pJPerUnit float64) {
	m.pJ[c] += float64(n) * pJPerUnit
}

// Merge adds every component total of o into m. The parallel schedules give
// each SM a private meter (so the hot loop is contention-free) and merges
// them in ascending SM-id order at the end of a launch; a fixed merge order
// keeps the floating-point sums bit-identical for any worker count.
func (m *Meter) Merge(o *Meter) {
	for c := Component(0); c < NumComponents; c++ {
		m.pJ[c] += o.pJ[c]
	}
}

// Energy returns the accumulated energy of component c in picojoules.
func (m *Meter) Energy(c Component) float64 { return m.pJ[c] }

// RegisterTelemetry registers one energy gauge per component. Gauges are
// last-wins across a sequence's launches, so registering the same cumulative
// meter every launch reports the end-of-run totals; reading after Finish
// includes the static bucket.
func (m *Meter) RegisterTelemetry(reg *telemetry.Registry, instance int) {
	for c := Component(0); c < NumComponents; c++ {
		comp := c
		reg.Gauge("power."+comp.String()+"_pj", instance, func() float64 { return m.pJ[comp] })
	}
}

// TotalDynamic returns total accumulated dynamic energy in picojoules
// (everything except CompStatic).
func (m *Meter) TotalDynamic() float64 {
	var t float64
	for c := Component(0); c < NumComponents; c++ {
		if c != CompStatic {
			t += m.pJ[c]
		}
	}
	return t
}

// Breakdown is a finished power report for one simulation.
type Breakdown struct {
	Seconds   float64
	EnergyJ   float64 // total energy including static
	AvgPowerW float64
	PerComp   [NumComponents]float64 // watts per component
}

// Finish converts accumulated energy plus static power over the elapsed
// cycles into a Breakdown. staticW is the total static+constant power of
// the modelled chip configuration.
func (m *Meter) Finish(cycles uint64, freqHz float64, staticW float64) Breakdown {
	secs := float64(cycles) / freqHz
	if secs <= 0 {
		secs = 1e-12
	}
	m.pJ[CompStatic] = staticW * secs * 1e12
	var b Breakdown
	b.Seconds = secs
	for c := Component(0); c < NumComponents; c++ {
		b.PerComp[c] = m.pJ[c] * 1e-12 / secs
		b.EnergyJ += m.pJ[c] * 1e-12
	}
	b.AvgPowerW = b.EnergyJ / secs
	return b
}

// Share returns component c's fraction of average power.
func (b Breakdown) Share(c Component) float64 {
	if b.AvgPowerW == 0 {
		return 0
	}
	return b.PerComp[c] / b.AvgPowerW
}

// ExecShare returns the execution-unit (ALU+SFU) share of average power.
func (b Breakdown) ExecShare() float64 {
	return b.Share(CompExecALU) + b.Share(CompExecSFU)
}

// rfDynamic lists the components of the register-file dynamic aggregate
// Figure 12 measures: arrays + crossbar + BVR/EBR + scalar bank + codec.
// The sums over it add in this order, which the pinned Results depend on.
var rfDynamic = [...]Component{CompRFArray, CompRFCrossbar, CompRFBVR, CompRFScalarBank, CompCodec}

// RFDynamicW returns the register-file aggregate dynamic power in watts.
func (b Breakdown) RFDynamicW() float64 {
	var w float64
	for _, c := range rfDynamic {
		w += b.PerComp[c]
	}
	return w
}

// RFShare returns the register-file aggregate share of average power.
func (b Breakdown) RFShare() float64 {
	var s float64
	for _, c := range rfDynamic {
		s += b.Share(c)
	}
	return s
}

// String renders the breakdown as a table sorted by power.
func (b Breakdown) String() string {
	type row struct {
		name string
		w    float64
	}
	rows := make([]row, 0, NumComponents)
	for c := Component(0); c < NumComponents; c++ {
		rows = append(rows, row{c.String(), b.PerComp[c]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].w > rows[j].w })
	var sb strings.Builder
	fmt.Fprintf(&sb, "total %.2f W over %.3g s\n", b.AvgPowerW, b.Seconds)
	for _, r := range rows {
		if r.w == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-14s %8.3f W  (%4.1f%%)\n", r.name, r.w, 100*r.w/b.AvgPowerW)
	}
	return sb.String()
}
