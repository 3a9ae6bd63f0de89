package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gscalar"
	"gscalar/internal/experiments"
)

// TestMetricsSinkTraceSpec writes a trace-backed point's telemetry and
// Chrome trace through the sink. The spec holds a path, so the files must
// be named with the flattened stem -trace-out uses, inside the directories
// they were asked for.
func TestMetricsSinkTraceSpec(t *testing.T) {
	dir := t.TempDir()
	metricsDir, traceDir := filepath.Join(dir, "metrics"), filepath.Join(dir, "chrome")
	sink, err := newMetricsSink(metricsDir, "json", traceDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := "trace:" + filepath.Join(dir, "hw.gstr")
	p := experiments.Point{Arch: gscalar.GScalar, Workload: spec, Scale: 1}
	sink.write(p, &gscalar.Metrics{Workload: spec, Arch: gscalar.GScalar.String()})
	if err := sink.err(); err != nil {
		t.Fatal(err)
	}
	stem := p.FileName()
	data, err := os.ReadFile(filepath.Join(metricsDir, stem+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var m gscalar.Metrics
	if err := json.Unmarshal(data, &m); err != nil || m.Workload != spec {
		t.Errorf("metrics file: workload %q, err %v; want %q", m.Workload, err, spec)
	}
	if _, err := os.Stat(filepath.Join(traceDir, stem+".trace.json")); err != nil {
		t.Error(err)
	}
}
