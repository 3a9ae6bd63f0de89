// Package sm implements the streaming-multiprocessor timing model: dual
// greedy-then-oldest warp schedulers, a scoreboard (no data bypassing),
// operand collectors arbitrating over 16 register banks, the three SIMT
// execution pipelines (2×16-lane ALU, 16-lane MEM, 4-lane SFU), the
// writeback stage with the compression encoder, and the architecture
// overlays the paper evaluates (baseline, prior scalar-RF, Warped-
// Compression/BDI, and G-Scalar).
package sm

import (
	"gscalar/internal/core"
	"gscalar/internal/power"
)

// RVCKind selects the register-value-compression scheme.
type RVCKind uint8

// Compression schemes.
const (
	RVCNone     RVCKind = iota
	RVCByteWise         // the paper's byte-wise technique (§3)
	RVCBDI              // Warped-Compression's BDI (Figure 12 "W-C")
)

// ScalarKind selects the scalar-execution mechanism.
type ScalarKind uint8

// Scalar mechanisms.
const (
	ScalarNone    ScalarKind = iota
	ScalarPriorRF            // Gilani et al.: non-divergent ALU only, single scalar bank
	ScalarGS                 // G-Scalar, parameterised by core.Features
)

// Arch is the architecture overlay an SM simulates.
type Arch struct {
	RVC    RVCKind
	Scalar ScalarKind
	F      core.Features // compression/scalar feature detail for RVCByteWise/ScalarGS
	// CompilerMoveElision enables §3.3's compiler-assisted optimisation:
	// decompressing moves are not injected before divergent writes whose
	// previous register value is provably dead (liveness analysis at
	// assembly time). The paper estimates this lowers the ~2 % move
	// overhead further.
	CompilerMoveElision bool
	// Sched selects the warp scheduling policy (default: GTO).
	Sched SchedPolicy
}

// HasCodec reports whether the architecture carries the compressor/
// decompressor structures (for static power).
func (a Arch) HasCodec() bool { return a.RVC != RVCNone }

// extraLatency is the pipeline depth the codec adds (3 cycles for
// compressing architectures, §5.1).
func (a Arch) extraLatency() uint64 {
	if a.HasCodec() {
		return power.ExtraPipelineCycles
	}
	return 0
}

// Baseline returns the unmodified GPU.
func Baseline() Arch { return Arch{} }

// PriorScalarRF returns the "ALU scalar" comparator: scalar register file,
// non-divergent ALU scalar execution only, no compression, no added
// latency.
func PriorScalarRF() Arch { return Arch{Scalar: ScalarPriorRF} }

// WarpedCompression returns the BDI register-compression comparator
// (no scalar execution).
func WarpedCompression() Arch {
	return Arch{RVC: RVCBDI}
}

// RVCOnly returns the paper's byte-wise compression without scalar
// execution (the Figure 12 "ours" RF technique).
func RVCOnly() Arch {
	return Arch{RVC: RVCByteWise, F: core.Features{HalfCompression: true}}
}

// GScalar returns the full G-Scalar architecture.
func GScalar() Arch {
	return Arch{RVC: RVCByteWise, Scalar: ScalarGS, F: core.GScalarFeatures()}
}

// GScalarCompilerAssist returns G-Scalar with the §3.3 compiler-assisted
// dead-value move elision enabled.
func GScalarCompilerAssist() Arch {
	a := GScalar()
	a.CompilerMoveElision = true
	return a
}

// GScalarNoDiv returns G-Scalar without divergent/half-warp scalar
// execution (Figure 11 "G-Scalar w/o divergent").
func GScalarNoDiv() Arch {
	return Arch{RVC: RVCByteWise, Scalar: ScalarGS, F: core.GScalarNoDivFeatures()}
}

// SchedPolicy selects the warp-scheduling policy.
type SchedPolicy uint8

// Scheduling policies.
const (
	// SchedGTO is greedy-then-oldest (the GPGPU-Sim default the paper's
	// configuration uses): keep issuing from the last warp, fall back to
	// the oldest ready warp.
	SchedGTO SchedPolicy = iota
	// SchedLRR is loose round-robin: rotate through ready warps.
	SchedLRR
)

// Pipeline and memory-pipeline parameters that have one value in Table 1's
// GTX 480.
const (
	ALUUnits = 2  // ALU pipelines, each SIMTWidth lanes wide
	SFUWidth = 4  // lanes of the SFU pipeline
	L1Assoc  = 4  // L1 data-cache ways
	MaxMSHRs = 48 // outstanding global transactions per SM
)

// Config is the simulated chip: Table 1's settable parameters. It has
// exactly gscalar.Config's field list, with the same names, types and order,
// so a public config converts to it (sm.Config(c)) and a field added to one
// and not the other stops the build. gscalar.Config documents each field.
// The SM reads its per-SM fields; the chip loop reads the rest.
type Config struct {
	NumSMs          int     // streaming multiprocessors
	CoreClockHz     float64 // SM clock
	WarpSize        int     // threads per warp
	SchedulersPerSM int     // warp schedulers; a scheduler holds at most 64 warps (its warp sets are 64-bit masks)
	MaxWarpsPerSM   int     // resident warps
	MaxCTAsPerSM    int     // resident CTAs
	RegFileKB       int     // register file: a CTA launches only if its warps' registers fit
	RegFileBanks    int     // register-file banks
	CollectorsPerSM int     // operand collectors, at most 64 (collector sets are 64-bit masks)
	SIMTWidth       int     // lanes of each ALU pipeline and of the memory pipeline
	L1Bytes         int     // L1 data cache per SM
	L2Bytes         int     // shared L2
	MemChannels     int     // DRAM channels
	MaxCycles       uint64  // abort bound; 0 = a large default
	Workers         int     // chip-loop schedule: 0 serial, otherwise phased on this many workers
	EpochCycles     int     // > 0 selects the relaxed schedule with this epoch length
}

// DefaultConfig returns Table 1's GTX 480, the one place its values are
// written.
func DefaultConfig() Config {
	return Config{
		NumSMs:          15,
		CoreClockHz:     1.4e9,
		WarpSize:        32,
		SchedulersPerSM: 2,
		MaxWarpsPerSM:   48, // 1536 threads / 32
		MaxCTAsPerSM:    8,
		RegFileKB:       128,
		RegFileBanks:    16,
		CollectorsPerSM: 16,
		SIMTWidth:       16,
		L1Bytes:         16 << 10,
		L2Bytes:         768 << 10,
		MemChannels:     6,
	}
}
