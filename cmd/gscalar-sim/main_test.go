package main

import (
	"bytes"
	"context"
	"math"
	"regexp"
	"strconv"
	"testing"

	"gscalar"
)

// TestPrintResultEnergyPrecision renders HS's result and requires the
// printed RF dynamic energy, Figure 12's metric, to read back within 0.1 %
// of the simulated value: at scale 1 it is a few tens of microjoules.
func TestPrintResultEnergyPrecision(t *testing.T) {
	cfg := gscalar.DefaultConfig()
	s, err := gscalar.NewSession(cfg, gscalar.GScalar)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWorkload(context.Background(), "HS", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printResult(&buf, "HS", gscalar.GScalar, 1, cfg, res, false)
	m := regexp.MustCompile(`RF dynamic (\S+) (J|mJ|µJ|nJ)\)`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("no RF dynamic energy in:\n%s", buf.String())
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	printed := v * map[string]float64{"J": 1, "mJ": 1e-3, "µJ": 1e-6, "nJ": 1e-9}[m[2]]
	if rel := math.Abs(printed-res.RFDynamicJ) / res.RFDynamicJ; !(rel <= 0.001) {
		t.Errorf("printed RF dynamic %s %s, simulated %g J: off by %.2f %%", m[1], m[2], res.RFDynamicJ, 100*rel)
	}
}
