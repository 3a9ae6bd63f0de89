package experiments

import (
	"fmt"

	"gscalar"
	"gscalar/internal/power"
	"gscalar/internal/sm"
	"gscalar/internal/stats"
)

// FormatTable1 renders the simulator configuration (Table 1).
func FormatTable1(cfg gscalar.Config) string {
	t := stats.NewTable("parameter", "value", "paper (Table 1)")
	t.Row("# of SMs", cfg.NumSMs, 15)
	t.Row("SM frequency", fmt.Sprintf("%.1f GHz", cfg.CoreClockHz/1e9), "1.4 GHz")
	t.Row("registers per SM", fmt.Sprintf("%d KB", cfg.RegFileKB), "128 KB")
	t.Row("register file banks", cfg.RegFileBanks, 16)
	t.Row("operand collectors per SM", cfg.CollectorsPerSM, 16)
	t.Row("warp size", cfg.WarpSize, 32)
	t.Row("schedulers per SM", cfg.SchedulersPerSM, 2)
	t.Row("SIMT execution width", cfg.SIMTWidth, 16)
	t.Row("L1$ per SM", fmt.Sprintf("%d KB", cfg.L1Bytes/1024), "16 KB")
	t.Row("threads per SM", cfg.MaxWarpsPerSM*cfg.WarpSize, 1536)
	t.Row("CTAs per SM", cfg.MaxCTAsPerSM, 8)
	t.Row("memory channels", cfg.MemChannels, 6)
	t.Row("L2$ size", fmt.Sprintf("%d KB", cfg.L2Bytes/1024), "768 KB")
	return "Table 1: simulator configuration\n" + t.String()
}

// FormatTable2 renders the benchmark list (Table 2).
func FormatTable2() string {
	t := stats.NewTable("suite", "benchmark", "abbr", "description")
	for _, abbr := range gscalar.Workloads() {
		w, _ := gscalar.WorkloadByAbbr(abbr)
		t.Row(w.Suite, w.Name, w.Abbr, w.Desc)
	}
	return "Table 2: benchmarks\n" + t.String()
}

// FormatTable3 renders the codec synthesis results (Table 3) and the
// derived chip cost the paper quotes in §5.1.
func FormatTable3() string {
	t := stats.NewTable("", "decompressor", "compressor")
	t.Row("area (um^2)", power.DecompressorAreaUM2, power.CompressorAreaUM2)
	t.Row("delay (ns)", power.DecompressorDelayNS, power.CompressorDelayNS)
	t.Row("power (mW) @1.4GHz", power.DecompressorPowerMW, power.CompressorPowerMW)
	t.Row("instances per SM", power.DecompressorsPerSM, power.CompressorsPerSM)
	c := power.Table3Cost()
	der := stats.NewTable("derived per-SM cost", "value", "paper (§5.1)")
	der.Row("total codec power", fmt.Sprintf("%.2f W", c.TotalPowerWPerSM), "0.32 W (1.6%)")
	der.Row("total codec area", fmt.Sprintf("%.3f mm^2", c.TotalAreaMM2PerSM), "0.16 mm^2 (0.7%)")
	der.Row("BVR/EBR access energy", fmt.Sprintf("%.1f%% of full bank access", 100*power.BVREBRAccessFrac), "5.2%")
	der.Row("RF array growth", fmt.Sprintf("%.0f%% (half-reg: %.0f%%)",
		100*power.RFAreaGrowthFrac, 100*power.RFAreaGrowthHalfFrac), "3% / 7%")
	der.Row("added pipeline latency", fmt.Sprintf("%d cycles", power.ExtraPipelineCycles), "3 cycles")
	return "Table 3: encoder/decoder synthesis (40nm, paper inputs)\n" + t.String() + "\n" + der.String()
}

// MoveOverheadRow is the §3.3 decompress-move overhead measurement:
// hardware-only injection vs the compiler-assisted dead-value elision.
type MoveOverheadRow struct {
	Abbr             string
	Hardware         float64 // injected moves / committed instructions
	CompilerAssisted float64 // with dead-value elision (liveness analysis)
}

// MoveOverhead measures injected decompress-moves under full G-Scalar,
// with and without the compiler-assisted elision (paper §3.3: ~2% for the
// hardware technique, "less than 2%" with compile-time lifetime
// information).
func (s *Suite) MoveOverhead() ([]MoveOverheadRow, error) {
	var rows []MoveOverheadRow
	for _, abbr := range s.r.o.Workloads {
		res, err := s.r.run(gscalar.GScalar, abbr)
		if err != nil {
			return nil, err
		}
		ca, err := s.runCustomArch(abbr, sm.GScalarCompilerAssist())
		if err != nil {
			return nil, err
		}
		rows = append(rows, MoveOverheadRow{
			Abbr:             abbr,
			Hardware:         res.MoveOverhead,
			CompilerAssisted: ca.Stats.MoveOverhead(),
		})
	}
	return rows, nil
}

// FormatMoveOverhead renders the §3.3 overhead table.
func FormatMoveOverhead(rows []MoveOverheadRow) string {
	t := stats.NewTable("bench", "hardware", "compiler-assisted")
	var h, c []float64
	for _, r := range rows {
		t.Row(r.Abbr, pct(r.Hardware), pct(r.CompilerAssisted))
		h = append(h, r.Hardware)
		c = append(c, r.CompilerAssisted)
	}
	t.Row("MEAN", pct(mean(h)), pct(mean(c)))
	return "Section 3.3: decompress-move dynamic-instruction overhead\n" +
		"(paper: ~2% hardware-only; less than 2% with compile-time lifetime info)\n" + t.String()
}
