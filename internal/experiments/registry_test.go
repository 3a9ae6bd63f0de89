package experiments

import (
	"context"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"gscalar"
	"gscalar/internal/store"
)

// TestSelectRejectsUnknownExperiment: a typo'd experiment name must fail
// with an error that lists every valid name, never select nothing; every
// registered name and "all" must select.
func TestSelectRejectsUnknownExperiment(t *testing.T) {
	exps, err := Select("figg11")
	if err == nil {
		t.Fatalf("Select(figg11) = %v, want error", exps)
	}
	for _, want := range append([]string{"figg11", "all"}, Names()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("experiment %q registered twice", name)
		}
		seen[name] = true
		exps, err := Select(name)
		if err != nil || len(exps) != 1 || exps[0].Name != name {
			t.Errorf("Select(%q) = %v, %v", name, exps, err)
		}
	}
	all, err := Select("all")
	if err != nil || len(all) != len(registry) {
		t.Errorf("Select(all) = %d experiments, %v; want %d", len(all), err, len(registry))
	}
}

// registryRun is what one experiment did on a one-workload suite over a
// private memo: the architectures of the memo points it simulated, and its
// CSV.
type registryRun struct {
	archs map[gscalar.Arch]bool
	csv   string
	err   error
}

// runRegistry renders every experiment once per test binary. OnMetrics
// fires once per freshly simulated memo point, so with a private memo per
// experiment it records exactly the architectures the experiment reads.
var runRegistry = sync.OnceValue(func() map[string]registryRun {
	cfg := gscalar.DefaultConfig()
	cfg.NumSMs = 2
	runs := map[string]registryRun{}
	for _, e := range registry {
		archs := map[gscalar.Arch]bool{}
		o := Options{Config: cfg, Workloads: []string{"HW"}}
		o.OnMetrics = func(p Point, _ *gscalar.Metrics) { archs[p.Arch] = true }
		s := NewSuiteContext(context.Background(), o)
		s.r.memo = store.NewMemory()
		_, csv, err := e.Render(s)
		runs[e.Name] = registryRun{archs: archs, csv: csv, err: err}
	}
	return runs
})

// TestRegistryArchsMatchMemoReads checks each entry's declared Archs — the
// points PrewarmContext simulates ahead of time — against the memo points its
// Render actually reads.
func TestRegistryArchsMatchMemoReads(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	runs := runRegistry()
	for _, e := range registry {
		run := runs[e.Name]
		if run.err != nil {
			t.Errorf("%s: %v", e.Name, run.err)
			continue
		}
		declared := map[gscalar.Arch]bool{}
		for _, a := range e.Archs {
			declared[a] = true
		}
		if !maps.Equal(run.archs, declared) {
			t.Errorf("%s reads memo points of %v, declares %v", e.Name, run.archs, declared)
		}
	}
}

// TestRegistryCSVSet pins which experiments -csv writes a file for.
func TestRegistryCSVSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var got []string
	for _, e := range registry {
		run := runRegistry()[e.Name]
		if run.err != nil {
			t.Fatalf("%s: %v", e.Name, run.err)
		}
		if run.csv != "" {
			got = append(got, e.Name)
		}
	}
	want := []string{"fig1", "fig8", "fig9", "fig10", "fig11", "fig12", "moves", "width"}
	if !slices.Equal(got, want) {
		t.Errorf("experiments with a CSV = %v, want %v", got, want)
	}
}
