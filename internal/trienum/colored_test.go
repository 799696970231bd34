package trienum

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// admittedTuples is the brute-force oracle of the tuple lister: every
// tuple of k colors out of c, in lexicographic order, filtered by the
// rule's pairs over full(a, b), whether bucket (a, b) holds an edge.
func admittedTuples(c, k int, pairs [][2]int, either bool, full func(a, b int) bool) [][]int {
	var out [][]int
	t := make([]int, k)
	for i, n := 0, pow(c, k); i < n; i++ {
		for j, r := k-1, i; j >= 0; j-- {
			t[j], r = r%c, r/c
		}
		ok := true
		for _, p := range pairs {
			a, b := t[p[0]], t[p[1]]
			ok = ok && (full(a, b) || either && full(b, a))
		}
		if ok {
			out = append(out, slices.Clone(t))
		}
	}
	return out
}

func pow(b, e int) int {
	r := 1
	for range e {
		r *= b
	}
	return r
}

// walk returns the tuples the lister lists from its tuple u on.
func walk(rule Rule, off []int64, c, u int) [][]int {
	var out [][]int
	for t := range tuples(rule, off, c, u) {
		out = append(out, slices.Clone(t))
	}
	return out
}

// TestColorCodedListsAdmittedTuples: on GNM(100, 400, 1) colored v mod 32,
// the clique rule at k = 4 admits 2,223 of the 2^20 color tuples. The
// color-coded step solves exactly those, each once and in lexicographic
// order, and a From at their count names no unit.
func TestColorCodedListsAdmittedTuples(t *testing.T) {
	const k, c = 4, 32
	sp := extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 6, Native: true})
	g := graph.CanonicalizeList(sp, graph.GNM(100, 400, 1))
	var full [c][c]bool
	for i := range g.Edges.Len() {
		e := g.Edges.Read(i)
		full[graph.U(e)%c][graph.V(e)%c] = true
	}
	rule := CliqueRule(k)
	want := admittedTuples(c, k, rule.Pairs, false, func(a, b int) bool { return full[a][b] })
	if len(want) != 2223 {
		t.Fatalf("the brute force admits %d tuples, want 2,223", len(want))
	}
	colorOf := func(v uint32) uint32 { return v % c }
	var solved atomic.Int64
	solve := func(_ *extmem.Space, _ extmem.Extent, _ []int64, tuple []int, r *[]int, _ *Sink) error {
		solved.Add(1)
		*r = tuple
		return nil
	}
	var got [][]int
	_, n, _, err := ColorCoded(Exec{Workers: 2}, sp, g.Edges, colorOf, c, rule, 0, solve, nil, func(t []int) { got = append(got, t) })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || solved.Load() != int64(len(want)) || !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		t.Errorf("listed %d and solved %d tuples, %d in order; the brute force admits %d", n, solved.Load(), len(got), len(want))
	}
	_, _, _, err = ColorCoded(Exec{Workers: 2, From: len(want)}, sp, g.Edges, colorOf, c, rule, 0, solve, nil, func([]int) {})
	if !errors.Is(err, ErrFrom) {
		t.Errorf("From %d: err %v, want ErrFrom", len(want), err)
	}
}

// FuzzTupleLister checks the tuple lister and Rule.Admits against the
// brute-force oracle, for c colors in [1, 6], k in [2, 5], the c² buckets
// non-empty by the bits of full, and either the clique rule or the
// connected pattern whose edges are the byte pairs of edges (mod k): the
// walk lists the oracle's tuples in order, and a walk from tuple u lists
// the oracle's from u on.
func FuzzTupleLister(f *testing.F) {
	const all = ^uint64(0)
	f.Add(uint8(3), uint8(3), all, true, []byte(nil))
	f.Add(uint8(4), uint8(4), uint64(0xfbf7_7eef), true, []byte(nil))
	f.Add(uint8(3), uint8(5), uint64(0x1fb), true, []byte(nil))
	f.Add(uint8(4), uint8(4), uint64(0xa5a5_f0f0), false, []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 2}) // diamond
	f.Add(uint8(3), uint8(5), uint64(0x16d), false, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1, 4}) // house
	f.Fuzz(func(t *testing.T, cb, kb uint8, full uint64, clique bool, edges []byte) {
		c, k := 1+int(cb)%6, 2+int(kb)%4
		off := make([]int64, c*c+1)
		for b := range c * c {
			off[b+1] = off[b] + int64(full>>b&1)
		}
		rule := CliqueRule(k)
		if !clique {
			rule = Rule{K: k, Either: true}
			parent := make([]int, k) // union-find, for connectivity
			for v := range parent {
				parent[v] = v
			}
			root := func(v int) int {
				for parent[v] != v {
					v = parent[v]
				}
				return v
			}
			for i := 0; i+1 < len(edges); i += 2 {
				a, b := int(edges[i])%k, int(edges[i+1])%k
				p := [2]int{min(a, b), max(a, b)}
				if a != b && !slices.Contains(rule.Pairs, p) {
					rule.Pairs = append(rule.Pairs, p)
					parent[root(a)] = root(b)
				}
			}
			for v := range k {
				if root(v) != root(0) {
					t.Skip("the pattern is not connected")
				}
			}
		}
		want := admittedTuples(c, k, rule.Pairs, rule.Either, func(a, b int) bool { return full>>(a*c+b)&1 != 0 })
		got := walk(rule, off, c, 0)
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("c=%d k=%d rule %+v: the walk lists %v, the oracle %v", c, k, rule, got, want)
		}
		for _, u := range []int{1, len(want) / 2, len(want) - 1, len(want), len(want) + 1} {
			if u < 0 {
				continue
			}
			if got := walk(rule, off, c, u); !slices.EqualFunc(got, want[min(u, len(want)):], slices.Equal[[]int]) {
				t.Fatalf("c=%d k=%d rule %+v: from tuple %d the walk lists %d tuples, want the oracle's last %d", c, k, rule, u, len(got), len(want)-min(u, len(want)))
			}
		}
		t2 := make([]int, k)
		for i, n := 0, pow(c, k); i < n; i++ {
			for j, r := k-1, i; j >= 0; j-- {
				t2[j], r = r%c, r/c
			}
			_, listed := slices.BinarySearchFunc(want, t2, slices.Compare[[]int])
			if rule.Admits(off, c, t2) != listed {
				t.Fatalf("c=%d k=%d rule %+v: Admits(%v) = %v, the oracle %v", c, k, rule, t2, !listed, listed)
			}
		}
	})
}
