package repro

import (
	"strings"
	"testing"
)

// TestAlgorithmNamesComplete: every algorithm has a distinct canonical
// name that round-trips through ParseAlgorithm, case-insensitively.
func TestAlgorithmNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Algorithms() {
		name := a.String()
		if strings.HasPrefix(name, "Algorithm(") {
			t.Errorf("%d has no canonical name", int(a))
		}
		if seen[name] {
			t.Errorf("duplicate algorithm name %q", name)
		}
		seen[name] = true
		got, err := ParseAlgorithm(strings.ToUpper(name))
		if err != nil || got != a {
			t.Errorf("case-insensitive round trip failed for %q: %v %v", name, got, err)
		}
	}
	if s := Algorithm(99).String(); s != "Algorithm(99)" {
		t.Errorf("unknown algorithm prints %q", s)
	}
}

// TestOptionsValidation: Build enforces the machine constraints, naming
// the violated one.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		m, b int
		want string
	}{
		{100000, 100, "power of two"},
		{100000, 0x60, "power of two"},
		{1000, 128, "tall-cache"},
		{127 * 127, 128, "tall-cache"},
	}
	for _, c := range cases {
		_, errBuild := Build(FromEdges(nil), Options{MemoryWords: c.m, BlockWords: c.b})
		if errBuild == nil || !strings.Contains(errBuild.Error(), c.want) {
			t.Errorf("Build(M=%d B=%d): error %v, want mention of %q", c.m, c.b, errBuild, c.want)
		}
	}
	// Defaults are valid and exposed through the handle.
	g, err := Build(FromEdges([][2]uint32{{0, 1}}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if o := g.Options(); o.MemoryWords != 1<<16 || o.BlockWords != 1<<7 {
		t.Errorf("defaulted options %+v", o)
	}
}

// TestIOStatsIOs: the aggregate the paper's bounds are stated in.
func TestIOStatsIOs(t *testing.T) {
	s := IOStats{BlockReads: 3, BlockWrites: 4}
	if s.IOs() != 7 {
		t.Errorf("IOs() = %d", s.IOs())
	}
}

// TestGenerateStrict: unknown parameter keys and malformed values are
// errors, not silent zeros — for both integer and float parameters.
func TestGenerateStrict(t *testing.T) {
	bad := []string{
		"gnm:n=100,zz=3",          // unknown key
		"gnm:n=abc",               // bad int
		"gnm:n=",                  // empty int
		"powerlaw:beta=fast",      // bad float
		"clique:m=5",              // key of another generator
		"sells:avail=half",        // bad float
		"rmat:scale=2.5",          // float where int expected
		"grid:r=3,c=3,diag=1",     // unknown key
		"planted:n=50,m=60,k=4.2", // float where int expected
	}
	for _, spec := range bad {
		if _, err := Generate(spec, 1); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
	// Well-formed specs, including defaulted parameters, still work.
	good := []string{"gnm", "gnm:n=50", "powerlaw:n=60,m=120,beta=2.5", "clique:n=8"}
	for _, spec := range good {
		edges, err := Generate(spec, 1)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
		}
		if len(edges) == 0 {
			t.Errorf("%q: empty graph", spec)
		}
	}
}
