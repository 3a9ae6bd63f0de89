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
	// ExtraLatency is the added pipeline depth (3 cycles for compressing
	// architectures, §5.1).
	ExtraLatency int
	// CompilerMoveElision enables §3.3's compiler-assisted optimisation:
	// decompressing moves are not injected before divergent writes whose
	// previous register value is provably dead (liveness analysis at
	// assembly time). The paper estimates this lowers the ~2 % move
	// overhead further.
	CompilerMoveElision bool
}

// HasCodec reports whether the architecture carries the compressor/
// decompressor structures (for static power).
func (a Arch) HasCodec() bool { return a.RVC != RVCNone }

// Baseline returns the unmodified GPU.
func Baseline() Arch { return Arch{} }

// PriorScalarRF returns the "ALU scalar" comparator: scalar register file,
// non-divergent ALU scalar execution only, no compression, no added
// latency.
func PriorScalarRF() Arch { return Arch{Scalar: ScalarPriorRF} }

// WarpedCompression returns the BDI register-compression comparator
// (no scalar execution).
func WarpedCompression() Arch {
	return Arch{RVC: RVCBDI, ExtraLatency: power.ExtraPipelineCycles}
}

// RVCOnly returns the paper's byte-wise compression without scalar
// execution (the Figure 12 "ours" RF technique).
func RVCOnly() Arch {
	return Arch{
		RVC:          RVCByteWise,
		F:            core.Features{HalfCompression: true},
		ExtraLatency: power.ExtraPipelineCycles,
	}
}

// GScalar returns the full G-Scalar architecture.
func GScalar() Arch {
	return Arch{
		RVC:          RVCByteWise,
		Scalar:       ScalarGS,
		F:            core.GScalarFeatures(),
		ExtraLatency: power.ExtraPipelineCycles,
	}
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
	return Arch{
		RVC:          RVCByteWise,
		Scalar:       ScalarGS,
		F:            core.GScalarNoDivFeatures(),
		ExtraLatency: power.ExtraPipelineCycles,
	}
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

// Config holds the SM's structural parameters (Table 1).
type Config struct {
	WarpSize      int // threads per warp
	Schedulers    int // warp schedulers per SM
	MaxWarps      int // resident warps per SM, at most 64 per scheduler (a scheduler's warp sets are 64-bit masks)
	MaxCTAs       int // resident CTAs per SM
	NumBanks      int // register-file banks
	NumCollectors int // operand collectors, at most 64 (collector sets are 64-bit masks)
	ALUUnits      int // number of ALU pipelines
	ALUWidth      int // lanes per ALU pipeline
	MemWidth      int // lanes of the memory pipeline
	SFUWidth      int // lanes of the SFU pipeline
	L1Bytes       int
	L1Assoc       int
	MaxMSHRs      int // outstanding global transactions per SM
	// Sched selects the warp scheduling policy (default: GTO).
	Sched SchedPolicy
	// RegFileBytes caps resident warps by register usage, like real
	// hardware: a CTA only launches if its warps' architectural registers
	// fit (Table 1: 128 KB per SM).
	RegFileBytes int
}

// DefaultConfig returns the GTX-480-like SM of Table 1.
func DefaultConfig() Config {
	return Config{
		WarpSize:      32,
		Schedulers:    2,
		MaxWarps:      48,
		MaxCTAs:       8,
		NumBanks:      16,
		NumCollectors: 16,
		ALUUnits:      2,
		ALUWidth:      16,
		MemWidth:      16,
		SFUWidth:      4,
		L1Bytes:       16 << 10,
		L1Assoc:       4,
		MaxMSHRs:      48,
		RegFileBytes:  128 << 10,
	}
}
