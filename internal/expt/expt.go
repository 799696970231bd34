// Package expt is the experiment harness reproducing the paper's
// evaluation. PODS 2014 is a theory paper: its "results" are Theorems 1–4
// and Lemma 3, not empirical tables, so each experiment here regenerates
// the measured quantity a theorem bounds and reports it against the
// predicted shape (constant ratios, improvement factors, crossovers).
// EXPERIMENTS.md records the outputs; cmd/ioexp and bench_test.go rerun
// them.
package expt

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/baseline"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/trienum"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%*s", widths[i], cell))
		}
		fmt.Fprintf(w, "   %s\n", sb.String())
	}
	line(t.Header)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Machine is a simulated machine description.
type Machine struct{ M, B int }

func (m Machine) space() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: m.M, B: m.B, AllowShortCache: m.M < m.B*m.B})
}

// Run names an algorithm runner over canonical graphs. Fn returns the
// per-worker I/O breakdown of the engine's parallel phases (nil for the
// sequential baselines); Measure adds it to the coordinator's count.
type Run struct {
	Name string
	Fn   func(sp *extmem.Space, g graph.Canonical, seed uint64, emit graph.Emit) (trienum.Info, []extmem.Stats, error)
}

// engine is the Exec every runner uses. The I/O totals are identical at
// every worker count, so the choice only affects wall-clock time.
var engine = trienum.Exec{}

// sequential adapts a baseline, which has no worker pool, to Run.Fn.
func sequential(run func(ctx context.Context, sp *extmem.Space, g graph.Canonical, emit graph.Emit) (trienum.Info, error)) func(*extmem.Space, graph.Canonical, uint64, graph.Emit) (trienum.Info, []extmem.Stats, error) {
	return func(sp *extmem.Space, g graph.Canonical, _ uint64, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
		info, err := run(nil, sp, g, e)
		return info, nil, err
	}
}

// Runners returns every algorithm under measurement.
func Runners() []Run {
	return []Run{
		{"cacheaware", func(sp *extmem.Space, g graph.Canonical, seed uint64, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.CacheAwareParallel(sp, g, seed, engine, e)
		}},
		{"oblivious", func(sp *extmem.Space, g graph.Canonical, seed uint64, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.ObliviousParallel(sp, g, seed, engine, e)
		}},
		{"deterministic", func(sp *extmem.Space, g graph.Canonical, _ uint64, e graph.Emit) (trienum.Info, []extmem.Stats, error) {
			return trienum.DeterministicParallel(sp, g, engine, e)
		}},
		{"hutaochung", sequential(trienum.HuTaoChung)},
		{"sortmerge", sequential(trienum.Dementiev)},
		{"edgeiterator", sequential(baseline.EdgeIterator)},
		{"nestedloop", sequential(baseline.BlockNestedLoop)},
	}
}

// Runner returns the named runner.
func Runner(name string) Run {
	for _, r := range Runners() {
		if r.Name == name {
			return r
		}
	}
	panic("expt: unknown runner " + name)
}

// Measurement is one algorithm execution's observables.
type Measurement struct {
	IOs       uint64
	Triangles uint64
	Info      trienum.Info
	Edges     int64
}

// Measure canonicalizes el on a fresh machine, drops the cache, runs r
// cold, and returns the measurement (canonicalization excluded, matching
// the paper's assumption of canonical input). IOs is the full cost of the
// run: the coordinator's I/Os plus every worker's. A run error — only the
// deterministic algorithm's invariant check can fail without a context —
// panics, as the experiment tables have no error channel.
func Measure(el graph.EdgeList, m Machine, r Run, seed uint64) Measurement {
	sp := m.space()
	g := graph.CanonicalizeList(sp, el)
	sp.DropCache()
	sp.ResetStats()
	var n uint64
	info, workerStats, err := r.Fn(sp, g, seed, graph.Counter(&n))
	if err != nil {
		panic(fmt.Sprintf("expt: %s: %v", r.Name, err))
	}
	sp.Flush()
	ios := sp.Stats().IOs()
	for _, w := range workerStats {
		ios += w.IOs()
	}
	return Measurement{IOs: ios, Triangles: n, Info: info, Edges: g.Edges.Len()}
}

// theoretical bound helpers

// OptBound is the paper's upper-bound form E^1.5/(sqrt(M)·B).
func OptBound(e int64, m Machine) float64 {
	return math.Pow(float64(e), 1.5) / (math.Sqrt(float64(m.M)) * float64(m.B))
}

// LowerBound is Theorem 3's Ω(t/(sqrt(M)·B) + t^(2/3)/B).
func LowerBound(t uint64, m Machine) float64 {
	tf := float64(t)
	return tf/(math.Sqrt(float64(m.M))*float64(m.B)) + math.Pow(tf, 2.0/3)/float64(m.B)
}

// HuBound is O(E²/(M·B)), the strongest prior upper bound.
func HuBound(e int64, m Machine) float64 {
	ef := float64(e)
	return ef * ef / (float64(m.M) * float64(m.B))
}

// cliqueWithEdges returns K_n with roughly e edges.
func cliqueWithEdges(e int64) graph.EdgeList {
	n := int(math.Round((1 + math.Sqrt(1+8*float64(e))) / 2))
	return graph.Clique(n)
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func d(x uint64) string   { return fmt.Sprintf("%d", x) }
func di(x int) string     { return fmt.Sprintf("%d", x) }
func d64(x int64) string  { return fmt.Sprintf("%d", x) }
func e0(x float64) string { return fmt.Sprintf("%.0f", x) }
