package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
)

// Trace is a decoded trace file. The static sections (program, launch,
// memory image) are the full simulation input; accessors hand out fresh
// copies of the mutable parts so one Trace can back many concurrent
// replays.
type Trace struct {
	// Meta is the capture's provenance record.
	Meta Meta
	// Hash is the sha256 hex digest of the encoded file bytes — the
	// content address trace-backed experiment points key on.
	Hash string

	progText string
	launch   kernel.LaunchConfig
	memNext  uint32
	memPages []kernel.MemPage

	progOnce sync.Once
	prog     *kernel.Program
	progErr  error
}

// ReadFile reads and decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Decode parses an encoded trace. It never panics on malformed input: any
// structural problem yields ErrTruncated, *VersionError or *FormatError,
// and no allocation is sized from an unvalidated length field. The returned
// Trace aliases data's memory-image bytes, so the caller must not mutate
// data afterwards.
func Decode(data []byte) (*Trace, error) {
	if len(data) >= len(Magic) && string(data[:len(Magic)]) != Magic {
		return nil, &FormatError{Offset: 0, Msg: "bad magic (not a trace file)"}
	}
	if len(data) < len(Magic)+1 {
		return nil, ErrTruncated
	}
	if v := int(data[len(Magic)]); v != Version {
		return nil, &VersionError{Got: v}
	}

	t := &Trace{}
	seen := map[uint8]bool{}
	d := &decoder{data: data, off: len(Magic) + 1}
	for {
		tagOff := d.off
		tag, err := d.u8()
		if err != nil {
			return nil, err // footer never reached
		}
		if tag == tagFooter {
			// CRC covers everything up to and including the footer tag.
			if d.remaining() < 4 {
				return nil, ErrTruncated
			}
			if d.remaining() > 4 {
				return nil, &FormatError{Offset: d.off + 4, Msg: "trailing data after footer"}
			}
			want := binary.LittleEndian.Uint32(data[d.off:])
			if got := crc32.ChecksumIEEE(data[:tagOff+1]); got != want {
				return nil, &FormatError{Offset: d.off, Msg: fmt.Sprintf("crc mismatch (file %08x, computed %08x)", want, got)}
			}
			break
		}
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.remaining()) {
			return nil, ErrTruncated
		}
		payload := data[d.off : d.off+int(n)]
		d.off += int(n)
		if tag <= tagMemory {
			if seen[tag] {
				return nil, &FormatError{Offset: tagOff, Msg: fmt.Sprintf("duplicate section tag %d", tag)}
			}
			seen[tag] = true
		}
		switch tag {
		case tagMeta:
			if err := json.Unmarshal(payload, &t.Meta); err != nil {
				return nil, &FormatError{Offset: tagOff, Msg: "meta section: " + err.Error()}
			}
		case tagProgram:
			t.progText = string(payload)
		case tagLaunch:
			if err := json.Unmarshal(payload, &t.launch); err != nil {
				return nil, &FormatError{Offset: tagOff, Msg: "launch section: " + err.Error()}
			}
		case tagMemory:
			if err := t.parseMemory(payload, tagOff); err != nil {
				return nil, err
			}
		default:
			// Unknown section from a newer writer, or the retired tag-5
			// record stream of an older one: skip.
		}
	}

	for _, tag := range []uint8{tagProgram, tagLaunch, tagMemory} {
		if !seen[tag] {
			return nil, &FormatError{Offset: -1, Msg: fmt.Sprintf("missing required section tag %d", tag)}
		}
	}

	sum := sha256.Sum256(data)
	t.Hash = hex.EncodeToString(sum[:])
	return t, nil
}

func (t *Trace) parseMemory(payload []byte, tagOff int) error {
	d := &decoder{data: payload}
	next, err := d.uvarint()
	if err != nil {
		return err
	}
	npages, err := d.uvarint()
	if err != nil {
		return err
	}
	// A page entry is at least two varint bytes, so bound the slice size
	// by the payload before allocating.
	if npages > uint64(d.remaining()) {
		return &FormatError{Offset: tagOff, Msg: fmt.Sprintf("page count %d exceeds payload size %d", npages, d.remaining())}
	}
	t.memNext = uint32(next)
	t.memPages = make([]kernel.MemPage, 0, npages)
	for i := uint64(0); i < npages; i++ {
		id, err := d.uvarint()
		if err != nil {
			return err
		}
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(d.remaining()) {
			return ErrTruncated
		}
		t.memPages = append(t.memPages, kernel.MemPage{ID: uint32(id), Data: d.data[d.off : d.off+int(n)]})
		d.off += int(n)
	}
	return nil
}

// Program assembles the trace's kernel. The result is built once and shared
// across callers: asm.Assemble pre-builds the per-PC metadata cache, so the
// shared Program is safe for concurrent replays.
func (t *Trace) Program() (*kernel.Program, error) {
	t.progOnce.Do(func() {
		p, err := asm.Assemble(t.progText)
		if err != nil {
			t.progErr = &FormatError{Offset: -1, Msg: "program section does not assemble: " + err.Error()}
			return
		}
		t.prog = p
	})
	return t.prog, t.progErr
}

// ProgramText returns the trace's kernel as .gasm source.
func (t *Trace) ProgramText() string { return t.progText }

// Launch returns a fresh copy of the captured launch configuration.
func (t *Trace) Launch() *kernel.LaunchConfig {
	lc := t.launch
	return &lc
}

// NewMemory materialises a fresh copy of the captured initial memory image.
// Each call returns an independent Memory, so concurrent replays never
// share mutable state.
func (t *Trace) NewMemory() *kernel.Memory {
	return kernel.NewMemoryFromSnapshot(t.memNext, t.memPages)
}

// decoder is a bounds-checked cursor over trace bytes.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) u8() (uint8, error) {
	if d.off >= len(d.data) {
		return 0, ErrTruncated
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, &FormatError{Offset: d.off, Msg: "varint overflows 64 bits"}
	}
	d.off += n
	return v, nil
}

func encodeMetaJSON(m Meta) ([]byte, error)                    { return json.Marshal(m) }
func encodeLaunchJSON(lc *kernel.LaunchConfig) ([]byte, error) { return json.Marshal(lc) }
