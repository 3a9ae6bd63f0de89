// Powersweep: runs a Table 2 benchmark across every architecture and warp
// size, printing the full efficiency picture — a one-benchmark slice of
// Figures 9, 10 and 11.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"gscalar"
)

func main() {
	bench := flag.String("bench", "BP", "Table 2 benchmark abbreviation")
	flag.Parse()

	info, ok := gscalar.WorkloadByAbbr(*bench)
	if !ok {
		log.Fatalf("unknown benchmark %q (options: %v)", *bench, gscalar.Workloads())
	}
	fmt.Printf("%s — %s (%s): %s\n\n", info.Abbr, info.Name, info.Suite, info.Desc)

	cfg := gscalar.DefaultConfig()
	fmt.Println("architecture        IPC     power(W)  IPC/W    vs base  eligible")
	var base float64
	for _, arch := range gscalar.AllArchs() {
		s, err := gscalar.NewSession(cfg, arch)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunWorkload(context.Background(), *bench, 1)
		if err != nil {
			log.Fatal(err)
		}
		if arch == gscalar.Baseline {
			base = res.IPCPerW
		}
		fmt.Printf("%-18s  %-6.2f  %-8.1f  %-7.4f  %-7.3f  %5.1f%%\n",
			arch, res.IPC, res.PowerW, res.IPCPerW, res.IPCPerW/base,
			100*res.Eligibility.Total())
	}

	// Figure 10: widen the warps and keep the resident threads of Table 1.
	fmt.Println("\nwarp-size sweep (16-thread checking granularity, Figure 10):")
	for _, ws := range []int{32, 64} {
		c := cfg
		c.MaxWarpsPerSM = cfg.MaxWarpsPerSM * cfg.WarpSize / ws
		c.WarpSize = ws
		s, err := gscalar.NewSession(c, gscalar.GScalar)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunWorkload(context.Background(), *bench, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  warp=%2d: half/quarter-scalar %.1f%%, total scalar-eligible %.1f%%\n",
			ws, 100*res.Eligibility.Half, 100*res.Eligibility.Total())
	}
}
