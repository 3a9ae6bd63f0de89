// Package regfile models the banked register file of §2.1/§3.2: 16 banks of
// eight 128-bit single-port SRAM arrays in the byte-plane-reordered layout,
// each bank paired with a small BVR/EBR array, plus (for the prior-work
// comparator) a single dedicated scalar bank. It arbitrates per-cycle port
// grants and composes the energy cost of each access from the core
// compression model's array counts.
package regfile

import (
	"gscalar/internal/core"
	"gscalar/internal/power"
	"gscalar/internal/telemetry"
	"gscalar/internal/warp"
)

// Port identifies which structure a register access uses.
type Port uint8

// Ports.
const (
	// PortMain is a bank's main SRAM arrays (one access per bank per cycle;
	// the paired BVR/EBR entry rides along).
	PortMain Port = iota
	// PortBVR is a bank's base-value/encoding-bit small array alone — a
	// compressed-scalar access. It has its own port, which is why G-Scalar
	// "effectively provides 16 banks for scalar values" (§4.1).
	PortBVR
	// PortScalarBank is the Gilani baseline's single dedicated scalar bank,
	// serving one access per cycle for the whole SM.
	PortScalarBank
)

// File is the per-SM register-file arbitration state. Port grants are
// tracked as per-bank cycle generations in two flat slices: a port is busy
// when its generation equals the current one, so starting a new cycle is a
// single counter increment instead of clearing every bank flag.
type File struct {
	gen       uint64
	mainGen   []uint64
	bvrGen    []uint64
	scalarGen uint64

	// Port-grant telemetry counters: plain increments on the TryServe hot
	// path, never read during simulation (see package telemetry).
	mainGrants   uint64
	bvrGrants    uint64
	scalarGrants uint64
}

// New creates the arbitration state for the given bank count.
func New(banks int) *File {
	return &File{
		gen:     1,
		mainGen: make([]uint64, banks),
		bvrGen:  make([]uint64, banks),
	}
}

// NewCycle releases all port grants for the next cycle.
func (f *File) NewCycle() { f.gen++ }

// TryServe attempts to grant the given port of the given bank this cycle.
func (f *File) TryServe(bank int, port Port) bool {
	switch port {
	case PortMain:
		if f.mainGen[bank] == f.gen {
			return false
		}
		f.mainGen[bank] = f.gen
		f.mainGrants++
	case PortBVR:
		if f.bvrGen[bank] == f.gen {
			return false
		}
		f.bvrGen[bank] = f.gen
		f.bvrGrants++
	case PortScalarBank:
		if f.scalarGen == f.gen {
			return false
		}
		f.scalarGen = f.gen
		f.scalarGrants++
	}
	return true
}

// RegisterTelemetry registers the file's port-grant counters under the given
// instance id (the owning SM's id).
func (f *File) RegisterTelemetry(reg *telemetry.Registry, instance int) {
	reg.Counter("rf.main_grants", instance, &f.mainGrants)
	reg.Counter("rf.bvr_grants", instance, &f.bvrGrants)
	reg.Counter("rf.scalarbank_grants", instance, &f.scalarGrants)
}

// BankOf maps an architectural register of a warp to its bank, using the
// register-index-plus-warp-id interleaving GPGPU-Sim uses.
func BankOf(reg uint8, warpGlobalID, banks int) int {
	return (int(reg) + warpGlobalID) % banks
}

// Access is the energy decomposition of one register-file access.
type Access struct {
	Port       Port
	Bank       int
	ArrayPJ    float64 // main SRAM array activation energy
	BVRPJ      float64 // BVR/EBR small-array energy
	XbarBytes  int     // bytes moved through the crossbar
	Decompress bool    // exercises the decompressor (Figure 5)
}

// ReadAccess composes the access for a byte-wise-compressed register read.
// The BVR/EBR entry is read every time: its enc bits gate which arrays
// activate.
func ReadAccess(reg uint8, warpGlobalID int, banks int, rc core.ReadCost, en power.Energies) Access {
	a := Access{
		Port:       PortMain,
		Bank:       BankOf(reg, warpGlobalID, banks),
		ArrayPJ:    float64(rc.ArraysRead) * en.RFArrayAccess,
		BVRPJ:      en.RFBVRAccess,
		XbarBytes:  rc.CrossbarBytes,
		Decompress: rc.Decompress,
	}
	if rc.ArraysRead == 0 {
		a.Port = PortBVR
	}
	return a
}

// BaselineReadAccess composes a full uncompressed register read (all arrays
// of the bank, full crossbar traffic).
func BaselineReadAccess(reg uint8, warpGlobalID, banks, warpSize int, en power.Energies) Access {
	arrays := core.Groups(warpSize) * core.WordBytes
	return Access{
		Port:      PortMain,
		Bank:      BankOf(reg, warpGlobalID, banks),
		ArrayPJ:   float64(arrays) * en.RFArrayAccess,
		XbarBytes: warpSize * core.WordBytes,
	}
}

// BaselineWriteArrays returns the number of 128-bit arrays a register write
// activates in the unmodified register file. Its arrays are word-
// interleaved, each holding four adjacent 4-byte lanes, so a full write
// (active == live) activates every array and a partial write (§3.3) the
// arrays holding at least one active lane. The cost depends only on the
// mask, not on the values.
func BaselineWriteArrays(active, live warp.Mask, warpSize int) int {
	if active == live {
		return core.Groups(warpSize) * core.WordBytes
	}
	const lanesPerArray = 4
	n := 0
	for lo := 0; lo < warpSize; lo += lanesPerArray {
		if active&(warp.FullMask(min(lanesPerArray, warpSize-lo))<<lo) != 0 {
			n++
		}
	}
	return n
}

// BDIReadAccess composes a Warped-Compression (BDI) register read: arrays
// proportional to the compressed footprint, plus the BDI unpacker energy.
// Both are in ArrayPJ, which the SM books as RF array energy
// (power.CompRFArray), while a BDI write books its BDICodecUse as codec
// energy (power.CompCodec). Figure 12's RF total is the same either way,
// but the per-component split puts the read-side unpacker in the arrays.
func BDIReadAccess(reg uint8, warpGlobalID, banks, compressedBytes int, en power.Energies) Access {
	arrays := (compressedBytes + 15) / 16
	return Access{
		Port:      PortMain,
		Bank:      BankOf(reg, warpGlobalID, banks),
		ArrayPJ:   float64(arrays)*en.RFArrayAccess + en.BDICodecUse,
		XbarBytes: compressedBytes,
	}
}

// ScalarBankAccess composes a read/write of the Gilani baseline's dedicated
// scalar bank.
func ScalarBankAccess(en power.Energies) Access {
	return Access{Port: PortScalarBank, ArrayPJ: en.RFScalarBankAccess}
}
