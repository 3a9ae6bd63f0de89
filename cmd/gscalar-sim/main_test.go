package main

import (
	"bytes"
	"context"
	"math"
	"regexp"
	"strconv"
	"strings"
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

// TestCheckpointStride pins the rule that -sample-stride and -progress name
// one lifecycle checkpoint stride: either alone sets it, equal values agree,
// and different values are rejected with an error naming both flags.
func TestCheckpointStride(t *testing.T) {
	for _, tc := range []struct {
		name             string
		sample, progress uint64
		want             uint64
	}{
		{"neither", 0, 0, 0},
		{"progress alone", 0, 1000, 1000},
		{"sample-stride alone", 64, 0, 64},
		{"both equal", 512, 512, 512},
	} {
		got, err := checkpointStride(tc.sample, tc.progress)
		if err != nil || got != tc.want {
			t.Errorf("%s: checkpointStride(%d, %d) = %d, %v; want %d, nil",
				tc.name, tc.sample, tc.progress, got, err, tc.want)
		}
	}
	_, err := checkpointStride(64, 1000)
	if err == nil {
		t.Fatal("checkpointStride(64, 1000) accepted two different strides")
	}
	for _, flag := range []string{"-sample-stride 64", "-progress 1000"} {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("error %q does not name %s", err, flag)
		}
	}
}
