package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"gscalar/internal/asm"
	"gscalar/internal/isa"
	"gscalar/internal/kernel"
)

const testProg = `
.kernel tracedemo
	mov r1, %tid.x
	iadd r2, r1, 5
	ldg r3, [r2]
	exit
`

// buildCapture assembles a tiny kernel and snapshots it with a launch
// configuration and a small memory image.
func buildCapture(t testing.TB) *Capture {
	t.Helper()
	prog, err := asm.Assemble(testProg)
	if err != nil {
		t.Fatal(err)
	}
	lc := &kernel.LaunchConfig{
		Grid:  kernel.Dim{X: 2, Y: 1},
		Block: kernel.Dim{X: 32, Y: 1},
	}
	lc.Params[0] = 0x1234
	mem := kernel.NewMemory()
	mem.AllocU32([]uint32{7, 8, 9, 0xdeadbeef})

	meta := Meta{Workload: "HS", Arch: "gscalar", Scale: 1, ConfigHash: "abc", WarpSize: 32}
	return NewCapture(meta, prog, lc, mem)
}

func encode(t *testing.T, c *Capture) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	cap := buildCapture(t)
	data := encode(t, cap)

	tr, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta != (Meta{Workload: "HS", Arch: "gscalar", Scale: 1, ConfigHash: "abc", WarpSize: 32}) {
		t.Errorf("meta = %+v", tr.Meta)
	}
	if len(tr.Hash) != 64 {
		t.Errorf("hash = %q, want 64 hex chars", tr.Hash)
	}
	prog, err := tr.Program()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "tracedemo" || prog.Len() != 4 {
		t.Errorf("program = %q len %d", prog.Name, prog.Len())
	}
	lc := tr.Launch()
	if lc.Grid != (kernel.Dim{X: 2, Y: 1}) || lc.Block != (kernel.Dim{X: 32, Y: 1}) || lc.Params[0] != 0x1234 {
		t.Errorf("launch = %+v", lc)
	}
	// Launch hands out an independent copy.
	lc.Params[0] = 0
	if tr.Launch().Params[0] != 0x1234 {
		t.Error("Launch() aliases internal state")
	}
	mem := tr.NewMemory()
	if got := mem.ReadU32(256, 4); got[3] != 0xdeadbeef || got[0] != 7 {
		t.Errorf("memory = %v", got)
	}
	// Mutating one replay's memory must not leak into the next.
	mem.Store32(256, 99)
	if tr.NewMemory().Load32(256) != 7 {
		t.Error("NewMemory shares pages between calls")
	}

	// Encoding carries no timestamps: a second encode is byte-identical.
	if !bytes.Equal(data, encode(t, cap)) {
		t.Error("re-encoding the same capture produced different bytes")
	}
}

func TestDecodeTruncated(t *testing.T) {
	cap := buildCapture(t)
	data := encode(t, cap)
	for i := 0; i < len(data); i++ {
		_, err := Decode(data[:i])
		if err == nil {
			t.Fatalf("Decode of %d/%d-byte prefix succeeded", i, len(data))
		}
		var fe *FormatError
		if !errors.Is(err, ErrTruncated) && !errors.As(err, &fe) {
			t.Fatalf("prefix %d: err = %v, want ErrTruncated or FormatError", i, err)
		}
	}
	// A clean cut just before the footer is the canonical truncation.
	if _, err := Decode(data[:len(data)-5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("footer-less trace: err = %v, want ErrTruncated", err)
	}
}

func TestDecodeVersionMismatch(t *testing.T) {
	cap := buildCapture(t)
	data := encode(t, cap)
	data[len(Magic)] = 2
	_, err := Decode(data)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 2 {
		t.Fatalf("err = %v, want *VersionError{Got: 2}", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	_, err := Decode([]byte("XXXX\x01 not a trace at all........"))
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FormatError", err)
	}
}

func TestDecodeCRCMismatch(t *testing.T) {
	cap := buildCapture(t)
	data := encode(t, cap)
	// Flip a memory-image payload byte: structurally valid, CRC must catch it.
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)-6] ^= 0xff
	_, err := Decode(corrupt)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("payload corruption: err = %v, want *FormatError", err)
	}
	// Flip a CRC byte itself.
	corrupt = bytes.Clone(data)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := Decode(corrupt); err == nil {
		t.Fatal("corrupted CRC accepted")
	}
}

// spliceSection inserts a section just before the footer and recomputes the
// CRC, emulating a writer that emits an extra section.
func spliceSection(data []byte, tag uint8, payload []byte) []byte {
	body := bytes.Clone(data[: len(data)-5 : len(data)-5])
	body = append(body, tag)
	body = binary.AppendUvarint(body, uint64(len(payload)))
	body = append(body, payload...)
	body = append(body, tagFooter)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestDecodeSkipsUnknownSections covers forward and backward compatibility:
// a section from a newer writer and the retired tag-5 record stream of
// older version-1 writers are both skipped, leaving the simulation input
// intact.
func TestDecodeSkipsUnknownSections(t *testing.T) {
	data := encode(t, buildCapture(t))
	want, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// An old record stream: a record count, then one packed record (sm,
	// warp, pc, opcode, flags, issued and active masks, no destination).
	legacy := binary.AppendUvarint(nil, 1)
	legacy = append(legacy, 0, 0, 3, uint8(isa.OpExit), 1<<4)
	legacy = binary.AppendUvarint(legacy, 1<<32-1)
	legacy = binary.AppendUvarint(legacy, 1<<32-1)
	legacy = append(legacy, 0)
	for _, c := range []struct {
		name    string
		tag     uint8
		payload []byte
	}{
		{"newer writer", 200, []byte("from the future")},
		{"retired record stream", 5, legacy},
	} {
		tr, err := Decode(spliceSection(data, c.tag, c.payload))
		if err != nil {
			t.Errorf("%s: section not skipped: %v", c.name, err)
			continue
		}
		if tr.Meta != want.Meta || tr.ProgramText() != want.ProgramText() || *tr.Launch() != *want.Launch() {
			t.Errorf("%s: static sections changed: %+v", c.name, tr.Meta)
		}
		if got := tr.NewMemory().ReadU32(256, 4); got[3] != 0xdeadbeef {
			t.Errorf("%s: memory = %v", c.name, got)
		}
	}
}

func TestDecodeRejectsDuplicateSections(t *testing.T) {
	data := encode(t, buildCapture(t))
	for tag := uint8(tagMeta); tag <= tagMemory; tag++ {
		_, err := Decode(spliceSection(data, tag, []byte(".kernel dup\n\texit\n")))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("duplicate section tag %d: err = %v, want *FormatError", tag, err)
		}
	}
}

func TestDecodeTrailingData(t *testing.T) {
	cap := buildCapture(t)
	data := append(encode(t, cap), 0xaa)
	_, err := Decode(data)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("trailing byte: err = %v, want *FormatError", err)
	}
}
