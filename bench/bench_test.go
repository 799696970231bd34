package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if !tailSupported(100, 0.9) || tailSupported(99, 0.9) {
		t.Error("a p90 needs exactly 100 samples to leave 10 beyond it")
	}
	if got := timing("x", xs[:99]); len(got) != 1 || got[0].name != "x_p50_ms" || got[0].n != 99 {
		t.Errorf("99 samples: %+v, want the median only", got)
	}
	if got := timing("x", xs); len(got) != 2 || got[1].name != "x_p90_ms" {
		t.Errorf("100 samples: %+v, want the median and the p90", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs below.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
	} {
		q1, m, q3 := quartiles(c.in)
		if got := [3]float64{q1, m, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	seq := func(seed uint64) (seeds []uint64, plan []queryKind, deltas [][2]uint32) {
		e := &env{seed: seed}
		r := e.rng(1)
		seeds = querySeeds(r, 10)
		plan = opPlan(r)
		m := newEdgeModel([][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4}}, e.rng(3))
		for i := 0; i < 5; i++ {
			add, remove := m.next(2)
			deltas = append(deltas, add...)
			deltas = append(deltas, remove...)
		}
		return
	}
	s1, p1, d1 := seq(1)
	s1b, p1b, d1b := seq(1)
	s2, p2, d2 := seq(2)
	if !slices.Equal(s1, s1b) || !slices.Equal(p1, p1b) || !slices.Equal(d1, d1b) {
		t.Error("the same seed gave different query seeds, op order, or deltas")
	}
	if slices.Equal(s1, s2) || slices.Equal(p1, p2) || slices.Equal(d1, d2) {
		t.Error("different seeds gave the same query seeds, op order, or deltas")
	}
	counts := map[queryKind]int{}
	for _, k := range p1 {
		counts[k]++
	}
	if counts[kindTriangles] != 100 || counts[kindOrdered] != 20 || counts[kindCliques4] != 20 {
		t.Errorf("op plan has %v, want 100 plain, 20 ordered, 20 4-clique queries", counts)
	}

	w1, w1b, w2 := wirePlan((&env{seed: 1}).rng(1)), wirePlan((&env{seed: 1}).rng(1)), wirePlan((&env{seed: 2}).rng(1))
	if !slices.Equal(w1, w1b) || slices.Equal(w1, w2) {
		t.Error("wire's op plan does not follow the seed")
	}
	streams := 0
	for i, o := range w1 {
		if o.stream {
			streams++
		}
		if i%(1+blockGathers) == blockGathers && streams != i/(1+blockGathers)+1 {
			t.Fatalf("block %d of wire's op plan does not hold exactly one stream", i/(1+blockGathers))
		}
	}
	if streams != 20 || len(w1) != 20*(1+blockGathers) {
		t.Errorf("wire's op plan has %d streams in %d ops, want 20 in %d", streams, len(w1), 20*(1+blockGathers))
	}
}

func TestEdgeModelDeltas(t *testing.T) {
	e := &env{seed: 5}
	var edges [][2]uint32
	for u := uint32(0); u < 30; u++ {
		edges = append(edges, [2]uint32{u, (u + 1) % 30}, [2]uint32{u, (u + 7) % 30})
	}
	m := newEdgeModel(edges, e.rng(3))
	n := len(m.list)
	for i := 0; i < 20; i++ {
		before := map[uint64]bool{}
		for _, k := range m.list {
			before[k] = true
		}
		add, remove := m.next(5)
		for _, x := range remove {
			if !before[uint64(x[0])<<32|uint64(x[1])] {
				t.Fatalf("removed %v, which was absent", x)
			}
		}
		for _, x := range add {
			if before[uint64(x[0])<<32|uint64(x[1])] || x[0] >= x[1] {
				t.Fatalf("added %v, which was present or not normalized", x)
			}
		}
		if len(m.list) != n {
			t.Fatalf("model size %d, want %d", len(m.list), n)
		}
	}
}

func TestReferenceEnumerators(t *testing.T) {
	// K5 has C(5,3) = 10 triangles and C(5,4) = 5 4-cliques; a duplicate
	// edge and a self-loop must not count.
	var edges [][2]uint32
	for u := uint32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, [2]uint32{v, u})
		}
	}
	edges = append(edges, [2]uint32{1, 0}, [2]uint32{3, 3})
	tris := refTriangles(edges)
	if len(tris) != 10 || tris[0] != [3]uint32{0, 1, 2} || tris[9] != [3]uint32{2, 3, 4} {
		t.Errorf("triangles of K5: %v", tris)
	}
	if c := refCliques4(edges); c.n != 5 {
		t.Errorf("4-cliques of K5: %d, want 5", c.n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name string
		new  []float64
		want string
	}{
		{"faster", shift(-1), "improved"},
		{"same", shift(0.01), "unchanged"},
		{"slower", shift(2), "regressed"},
		{"noisy", []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, "unresolved"},
	} {
		if got := compareRuns(base, c.new, false, 0.1).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if got := compareRuns(base, shift(1), true, 0.1).verdict; got != "improved" {
		t.Errorf("higher is better: %s, want improved", got)
	}
}

func TestWithoutFlag(t *testing.T) {
	got := withoutFlag([]string{"-workload", "all", "--seed", "3", "--workload=all", "-trace", "1"}, "workload")
	if want := []string{"--seed", "3", "-trace", "1"}; !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// tinyParams shrink every workload so a run takes well under a second.
var tinyParams = map[string]params{
	"sim-mem":     {graph: "powerlaw:n=300,m=1500,beta=2.1"},
	"native-disk": {graph: "powerlaw:n=300,m=1500,beta=2.1"},
	"update-mix":  {graph: "gnm:n=200,m=1200", deltaHalf: 10, checkpoint: 4, ioUpdates: 3},
	"wire":        {graph: "powerlaw:n=300,m=1500,beta=2.1", clusterGraph: "gnm:n=120,m=600", pageLimit: 40},
}

// runTiny runs one workload at the tiny sizes.
func runTiny(t *testing.T, name string, trace bool) *report {
	t.Helper()
	e := &env{name: name, seed: 1, seconds: 0.3, p: tinyParams[name],
		dir: filepath.Join(t.TempDir(), "run")}
	if trace {
		e.tr = newTracer()
	}
	r, err := run(e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.correct() || r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d problems=%v", name, r.correct(), r.failed, r.attempted, r.problems)
	}
	return r
}

// specNames reads the metric names BENCHMARK.json lists for one mode.
func specNames(t *testing.T, key string) []string {
	t.Helper()
	var spec map[string]json.RawMessage
	b := mustRead(t, filepath.Join("..", "BENCHMARK.json"))
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	return names
}

func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layer := specNames(t, "end_to_end"), specNames(t, "per_layer")
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, name, false)
			checkMetrics(t, r, e2e, true)

			r = runTiny(t, name, true)
			checkMetrics(t, r, layer, false)
			for _, m := range r.metrics {
				if m.name == "repro.unattributed_ios" && m.value != 0 {
					t.Errorf("the replay missed %v of the library's exact block I/Os", m.value)
				}
			}
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics requires exactly the listed metrics, finite, and (for the
// end-to-end set) nonzero, and a last output line that is the result
// object.
func checkMetrics(t *testing.T, r *report, names []string, nonzero bool) {
	t.Helper()
	var got []string
	for _, m := range r.metrics {
		got = append(got, m.name)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || (nonzero && m.value == 0) {
			t.Errorf("%s = %v", m.name, m.value)
		}
	}
	slices.Sort(got)
	want := slices.Clone(names)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("metrics %v, want %v", got, want)
	}
	var buf bytes.Buffer
	printReport(&buf, r)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct == nil || len(last.Metrics) != len(names) {
		t.Errorf("last line %q does not carry the result object (%v)", lines[len(lines)-1], err)
	}
}
