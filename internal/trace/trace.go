// Package trace defines the versioned trace format behind the capture/replay
// workload frontend.
//
// A trace file is self-describing: it carries the complete simulation input
// — the kernel program (as .gasm disassembly text, which reassembles
// bit-exactly), the launch configuration, and the initial global-memory
// image — and nothing else. Replay therefore reconstructs a
// workloads.Instance and drives the *unmodified* SM pipeline, so a replayed
// run is byte-identical to the live run it was captured from, under any
// architecture and any chip-loop schedule. Capture only snapshots that input
// before the run and writes it after the run succeeds, so it works under
// every schedule.
//
// # Binary format (version 1)
//
//	magic   "GSTR"                      4 bytes
//	version 0x01                        1 byte
//	section*                            tagged, length-prefixed
//	footer  tag 0x00 + CRC32            5 bytes, must be last
//
// Each section is {tag uint8, length uvarint, payload [length]byte}. A
// decoder skips sections with tags it does not know, so future versions can
// add sections without breaking old readers; bumping the version byte is
// reserved for changes old readers would silently misread. Defined tags:
//
//	1  meta     JSON-encoded Meta (no timestamps: capturing the same run
//	            twice yields identical bytes, so traces are content-addressable)
//	2  program  .gasm disassembly text (asm.Disassemble; reassembles bit-exact)
//	3  launch   JSON-encoded kernel.LaunchConfig
//	4  memory   initial global-memory snapshot:
//	            uvarint next-alloc cursor, uvarint page count, then per page
//	            uvarint page id + uvarint byte count + raw bytes
//	            (trailing zeros trimmed; absent pages read as zero)
//
// Tag 5 is retired and must not be reused: earlier version-1 writers
// emitted a per-instruction record stream there, which replay never read.
// Readers skip it like any unknown tag, so those traces still decode and
// replay unchanged.
//
// The footer is a literal 0x00 tag followed by the little-endian CRC32
// (IEEE) of every preceding byte (magic through the 0x00 tag inclusive). A
// file that ends before the footer — the only state an interrupted write
// could leave, and store.AtomicWrite prevents even that — fails decoding
// with ErrTruncated; a corrupted file fails the CRC with *FormatError.
package trace

import (
	"errors"
	"fmt"
)

// Format constants.
const (
	Magic   = "GSTR"
	Version = 1
)

// Section tags.
const (
	tagFooter  = 0
	tagMeta    = 1
	tagProgram = 2
	tagLaunch  = 3
	tagMemory  = 4
)

// Meta describes where a trace came from. It deliberately carries no
// timestamps or host identifiers: capturing the same run twice must produce
// identical bytes so the content hash can serve as a cache key.
type Meta struct {
	// Workload is the builtin abbreviation the capture ran (e.g. "HS"), or
	// whatever label the capturing session chose for a custom program.
	Workload string `json:"workload,omitempty"`
	// Arch is the architecture model the capture ran under. Replay is free
	// to pick a different one — the trace carries the simulation input, and
	// the input is architecture-independent.
	Arch string `json:"arch,omitempty"`
	// Scale is the workload scale the capture was built at.
	Scale int `json:"scale,omitempty"`
	// ConfigHash is the canonical hash of the capturing run's Config.
	ConfigHash string `json:"config_hash,omitempty"`
	// WarpSize is the warp width of the capturing run. Like Arch it is
	// provenance only: replay runs at the replaying config's warp size.
	WarpSize int `json:"warp_size"`
}

// ErrTruncated reports a trace that ends mid-structure — the input ran out
// before the footer, as a partially transferred or hand-truncated file
// would.
var ErrTruncated = errors.New("trace: truncated trace")

// VersionError reports a trace written by an incompatible format version.
type VersionError struct {
	Got int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("trace: unsupported format version %d (this reader handles version %d)", e.Got, Version)
}

// FormatError reports structurally invalid trace bytes: bad magic, a CRC
// mismatch, malformed varints, or section payloads that fail to parse.
type FormatError struct {
	Offset int // byte offset of the problem, -1 if not byte-addressable
	Msg    string
}

func (e *FormatError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("trace: invalid trace at byte %d: %s", e.Offset, e.Msg)
	}
	return "trace: invalid trace: " + e.Msg
}
