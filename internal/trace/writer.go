package trace

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"gscalar/internal/asm"
	"gscalar/internal/kernel"
	"gscalar/internal/store"
)

// Capture holds the simulation input of one run. NewCapture snapshots it
// before the run mutates memory; WriteFile writes it once the run has
// succeeded. The run itself is never observed, so capture works under any
// chip-loop schedule.
type Capture struct {
	meta     Meta
	progText string
	launch   kernel.LaunchConfig
	memNext  uint32
	memPages []kernel.MemPage
}

// NewCapture starts a capture of a run about to execute prog under lc with
// initial global memory mem. The memory image is snapshotted here, so the
// caller must invoke NewCapture before simulation starts mutating it.
func NewCapture(meta Meta, prog *kernel.Program, lc *kernel.LaunchConfig, mem *kernel.Memory) *Capture {
	c := &Capture{
		meta:     meta,
		progText: asm.Disassemble(prog),
		launch:   *lc,
	}
	c.memNext, c.memPages = mem.Snapshot()
	return c
}

// WriteFile encodes the trace to path via store.AtomicWrite: an interrupted
// write leaves either the previous file or nothing, never a truncated trace.
// The parent directory is created if missing.
func (c *Capture) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return store.AtomicWrite(path, c.Encode)
}

// Encode writes the full trace — header, sections, CRC footer — to w.
func (c *Capture) Encode(w io.Writer) error {
	cw := &crcWriter{w: w, crc: crc32.NewIEEE()}
	cw.write([]byte(Magic))
	cw.write([]byte{Version})

	metaJSON, err := encodeMetaJSON(c.meta)
	if err != nil {
		return err
	}
	cw.section(tagMeta, metaJSON)
	cw.section(tagProgram, []byte(c.progText))

	launchJSON, err := encodeLaunchJSON(&c.launch)
	if err != nil {
		return err
	}
	cw.section(tagLaunch, launchJSON)

	var memBuf []byte
	memBuf = binary.AppendUvarint(memBuf, uint64(c.memNext))
	memBuf = binary.AppendUvarint(memBuf, uint64(len(c.memPages)))
	for _, pg := range c.memPages {
		memBuf = binary.AppendUvarint(memBuf, uint64(pg.ID))
		memBuf = binary.AppendUvarint(memBuf, uint64(len(pg.Data)))
		memBuf = append(memBuf, pg.Data...)
	}
	cw.section(tagMemory, memBuf)

	// Footer: the tag byte is covered by the CRC, the CRC itself is not.
	cw.write([]byte{tagFooter})
	if cw.err != nil {
		return cw.err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], cw.crc.Sum32())
	_, err = w.Write(sum[:])
	return err
}

// crcWriter tees every write into a running CRC32 and latches the first
// error so Encode reads as straight-line code.
type crcWriter struct {
	w   io.Writer
	crc interface {
		io.Writer
		Sum32() uint32
	}
	err error
}

func (cw *crcWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc.Write(p)
	_, cw.err = cw.w.Write(p)
}

func (cw *crcWriter) section(tag uint8, payload []byte) {
	cw.write([]byte{tag})
	cw.write(binary.AppendUvarint(nil, uint64(len(payload))))
	cw.write(payload)
}
