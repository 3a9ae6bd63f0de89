package workloads

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"gscalar/internal/gen"
)

// TestParseSpec walks the three branches of the spec grammar and the
// canonical forms they produce.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		in    string
		kind  SpecKind
		canon string
	}{
		{"HS", SpecBuiltin, "HS"},
		{"NOPE", SpecBuiltin, "NOPE"}, // registry check is Resolve's job
		{"trace:/tmp/x.gstr", SpecTrace, "trace:/tmp/x.gstr"},
		{"trace:", SpecTrace, "trace:"},
		{"gen:", SpecGen, "gen:"},
		{"gen:div=0.30,sfu=0.05", SpecGen, "gen:div=0.3"}, // defaults dropped, shortest formatting
		{"gen:seed=7,div=0.3", SpecGen, "gen:div=0.3,seed=7"},
	}
	for _, c := range cases {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if s.Kind != c.kind {
			t.Errorf("ParseSpec(%q).Kind = %v, want %v", c.in, s.Kind, c.kind)
		}
		if got := s.Canonical(); got != c.canon {
			t.Errorf("ParseSpec(%q).Canonical() = %q, want %q", c.in, got, c.canon)
		}
	}
}

// TestParseSpecGenErrors: bad dials fail at parse time with the typed
// *gen.DialError threaded through, and the message names the full spec.
func TestParseSpecGenErrors(t *testing.T) {
	for _, in := range []string{"gen:bogus=1", "gen:div=2", "gen:sfu=0.4,mem=0.4"} {
		_, err := ParseSpec(in)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error", in)
			continue
		}
		var de *gen.DialError
		if !errors.As(err, &de) {
			t.Errorf("ParseSpec(%q): %v does not wrap *gen.DialError", in, err)
		}
		if !strings.Contains(err.Error(), in) {
			t.Errorf("ParseSpec(%q) error %q does not name the spec", in, err)
		}
	}
}

// TestResolveGen: a gen spec resolves to a Source whose Key is the
// canonical spelling — two spellings of one dial vector share a cache
// identity — and whose Build yields a runnable instance.
func TestResolveGen(t *testing.T) {
	a, err := Resolve("gen:div=0.30,seed=07,sfu=0.05")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve("gen:seed=7,div=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("equivalent specs got keys %q and %q", a.Key(), b.Key())
	}
	if a.Key() != "gen:div=0.3,seed=7" {
		t.Errorf("key = %q", a.Key())
	}
	inst, err := a.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Prog == nil || inst.Launch == nil || inst.Mem == nil {
		t.Fatalf("incomplete instance: %+v", inst)
	}
}

// FuzzParseSpec holds the two grammar invariants under arbitrary input:
// the parser never panics, and parse → canonical → parse is a fixed point
// (the canonical form parses to a spec with the same canonical form).
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"HS", "", "trace:a/b.gstr", "gen:", "gen:div=0.3,sfu=0.2",
		"gen:seed=4294967295", "gen:div=0.1,div=0.2", "gen:x=",
		"gen:div=1e-3", "gen:occ=0.05,coal=0,mem=0.45", "trace:", "gen:=,=",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		canon := s.Canonical()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, in, err)
		}
		if got := s2.Canonical(); got != canon {
			t.Fatalf("canonical not a fixed point: %q -> %q -> %q", in, canon, got)
		}
		if s2.Kind != s.Kind {
			t.Fatalf("kind changed across canonicalization: %v -> %v", s.Kind, s2.Kind)
		}
	})
}

// TestSplitList: comma-separated spec lists keep gen dial lists intact —
// the CLI -bench splitter must not chop "gen:div=0.3,occ=0.2" into two
// bogus specs.
func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"HS", []string{"HS"}},
		{"HS,LBM,MG", []string{"HS", "LBM", "MG"}},
		{"gen:div=0.3,occ=0.2", []string{"gen:div=0.3,occ=0.2"}},
		{"HS,gen:div=0.3,occ=0.2,LBM", []string{"HS", "gen:div=0.3,occ=0.2", "LBM"}},
		{"gen:div=0.3,gen:sfu=0.2", []string{"gen:div=0.3", "gen:sfu=0.2"}},
		{"gen:div=0.3,trace:a.gstr", []string{"gen:div=0.3", "trace:a.gstr"}},
		{"gen:,HS", []string{"gen:", "HS"}},
		{" HS , LBM ,", []string{"HS", "LBM"}},
		{"gen:seed=7,r1=0.1,SR1", []string{"gen:seed=7,r1=0.1", "SR1"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
