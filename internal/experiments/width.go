package experiments

import (
	"fmt"

	"gscalar/internal/asm"
	"gscalar/internal/gpu"
	"gscalar/internal/kernel"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
)

// widthSrc is a synthetic streaming kernel whose loaded operand values are
// confined to a parameterised effective bit-width. Narrow (short/char-like)
// data sign/zero-extends into identical upper bytes, which byte-wise
// compression never reads or writes — the §5.3 discussion ("for data types
// smaller than 4 bytes, our scheme can at least avoid the unnecessary
// access to the sign/zero extended bytes").
const widthSrc = `
.kernel widthsweep
	mov   r1, %tid.x
	imad  r2, %ctaid.x, %ntid.x, r1
	shl   r3, r2, 2
	iadd  r4, $0, r3
	ldg   r5, [r4]                 // value of the configured width
	mov   r6, 0
	mov   r7, 0
LOOP:
	imad  r8, r5, 3, r6            // derived values stay within width+2 bits
	iadd  r9, r8, r5
	and   r9, r9, $2               // re-confine to the data width
	iadd  r7, r7, r9
	iadd  r6, r6, 1
	isetp.lt p0, r6, 8
	@p0 bra LOOP
	iadd  r10, $1, r3
	stg   [r10], r7
	exit
`

// WidthRow is one point of the §5.3 data-width sweep.
type WidthRow struct {
	Bits             int
	RFDynamicVsBase  float64
	CompressionRatio float64
}

// WidthSweep measures RF dynamic power of byte-wise compression relative to
// the baseline register file while sweeping the effective operand width.
func (s *Suite) WidthSweep(bits []int) ([]WidthRow, error) {
	prog, err := asm.Assemble(widthSrc)
	if err != nil {
		return nil, err
	}
	var rows []WidthRow
	for _, b := range bits {
		build := func() (*kernel.LaunchConfig, *kernel.Memory) {
			const ctas = 40
			n := ctas * 256
			mem := kernel.NewMemory()
			mask := uint32(1)<<uint(b) - 1
			if b >= 32 {
				mask = ^uint32(0)
			}
			vals := make([]uint32, n)
			rng := uint32(0x9E3779B9)
			for i := range vals {
				rng = rng*1664525 + 1013904223
				vals[i] = rng & mask
			}
			lc := &kernel.LaunchConfig{Grid: kernel.Dim{X: ctas, Y: 1}, Block: kernel.Dim{X: 256, Y: 1}}
			lc.Params[0] = mem.AllocU32(vals)
			lc.Params[1] = mem.Alloc(n * 4)
			lc.Params[2] = mask
			return lc, mem
		}
		cfg := s.chip()

		lcB, memB := build()
		base, err := gpu.RunContext(s.r.ctx, cfg, sm.Baseline(), prog, lcB, memB)
		if err != nil {
			return nil, err
		}
		lcR, memR := build()
		rvc, err := gpu.RunContext(s.r.ctx, cfg, sm.RVCOnly(), prog, lcR, memR)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WidthRow{
			Bits:             b,
			RFDynamicVsBase:  rvc.Power.RFDynamicW() / base.Power.RFDynamicW(),
			CompressionRatio: rvc.Stats.CompressionRatio(),
		})
	}
	return rows, nil
}

// FormatWidthSweep renders the §5.3 sweep table.
func FormatWidthSweep(rows []WidthRow) string {
	t := stats.NewTable("data width", "RF dynamic vs baseline", "compression ratio")
	for _, r := range rows {
		t.Row(fmt.Sprintf("%d-bit", r.Bits),
			fmt.Sprintf("%.3f", r.RFDynamicVsBase),
			fmt.Sprintf("%.2f", r.CompressionRatio))
	}
	return "Section 5.3 extension: operand-width sweep\n" +
		"(narrower types leave sign/zero-extended upper bytes identical; byte-wise\n" +
		" compression skips them entirely, so RF power falls with data width)\n" + t.String()
}
