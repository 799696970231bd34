package repro

import (
	"fmt"
	"sort"
	"testing"
)

// The join oracle: JoinDecomposition.Join against an in-memory
// nested-loop join of the three projections.

// fifthNormalFormRelation builds a relation satisfying the 5NF join
// dependency: a handful of base rows closed under the dependency, so that
// the decomposition is lossless.
func fifthNormalFormRelation() []JoinRow {
	base := []JoinRow{
		{"ann", "acme", "vacuum"},
		{"ann", "acme", "toaster"},
		{"ann", "bolt", "vacuum"},
		{"bob", "bolt", "toaster"},
		{"bob", "cord", "kettle"},
		{"eve", "acme", "kettle"},
	}
	return joinClosure(base)
}

// joinClosure closes rows under the ternary join dependency, so that the
// decomposition is lossless (the relation is the join of its projections).
func joinClosure(rows []JoinRow) []JoinRow {
	set := map[JoinRow]bool{}
	for _, r := range rows {
		set[r] = true
	}
	for {
		var cur []JoinRow
		for r := range set {
			cur = append(cur, r)
		}
		added := false
		for _, r := range joinNaive(DecomposeJoinRows(cur)) {
			if !set[r] {
				set[r] = true
				added = true
			}
		}
		if !added {
			break
		}
	}
	var out []JoinRow
	for r := range set {
		out = append(out, r)
	}
	sortRows(out)
	return out
}

// joinNaive is an in-memory nested-loop reference join.
func joinNaive(d JoinDecomposition) []JoinRow {
	bt := map[string][]string{}
	for _, p := range d.BT {
		bt[p.A] = append(bt[p.A], p.B)
	}
	st := map[JoinPair]bool{}
	for _, p := range d.ST {
		st[p] = true
	}
	var out []JoinRow
	for _, p := range d.SB {
		for _, ty := range bt[p.B] {
			if st[JoinPair{p.A, ty}] {
				out = append(out, JoinRow{p.A, p.B, ty})
			}
		}
	}
	sortRows(out)
	return out
}

func sortRows(rows []JoinRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Salesperson != b.Salesperson {
			return a.Salesperson < b.Salesperson
		}
		if a.Brand != b.Brand {
			return a.Brand < b.Brand
		}
		return a.ProductType < b.ProductType
	})
}

// joinRows runs the public join and returns its rows sorted.
func joinRows(t *testing.T, dec JoinDecomposition, opt JoinOptions) ([]JoinRow, JoinStats) {
	t.Helper()
	var got []JoinRow
	st, err := dec.Join(opt, func(r JoinRow) { got = append(got, r) })
	if err != nil {
		t.Fatalf("%v/workers=%d: %v", opt.Algorithm, opt.Workers, err)
	}
	sortRows(got)
	return got, st
}

func sameRows(a, b []JoinRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJoinReconstructsRelation(t *testing.T) {
	rel := fifthNormalFormRelation()
	dec := DecomposeJoinRows(rel)
	for _, alg := range []Algorithm{CacheAware, CacheOblivious, Deterministic, HuTaoChung} {
		for _, workers := range []int{1, 4} {
			got, st := joinRows(t, dec, JoinOptions{Algorithm: alg, Seed: 5, Workers: workers})
			if !sameRows(got, rel) {
				t.Fatalf("%v/workers=%d: rows differ\ngot:  %v\nwant: %v", alg, workers, got, rel)
			}
			if st.Rows != uint64(len(rel)) {
				t.Errorf("%v/workers=%d: JoinStats.Rows=%d want %d", alg, workers, st.Rows, len(rel))
			}
		}
	}
}

func TestJoinMatchesNaiveOnRandomRelations(t *testing.T) {
	// Random decompositions (not necessarily from a 5NF relation): the
	// triangle join must agree with the naive in-memory join of the three
	// projections.
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%02d", prefix, i) }
	for trial := 0; trial < 5; trial++ {
		var dec JoinDecomposition
		nS, nB, nT := 8+trial, 6, 7
		for s := 0; s < nS; s++ {
			for b := 0; b < nB; b++ {
				if (s*7+b*3+trial)%3 == 0 {
					dec.SB = append(dec.SB, JoinPair{name("s", s), name("b", b)})
				}
			}
		}
		for b := 0; b < nB; b++ {
			for ty := 0; ty < nT; ty++ {
				if (b*5+ty+trial)%2 == 0 {
					dec.BT = append(dec.BT, JoinPair{name("b", b), name("t", ty)})
				}
			}
		}
		for s := 0; s < nS; s++ {
			for ty := 0; ty < nT; ty++ {
				if (s+ty*11+trial)%4 != 1 {
					dec.ST = append(dec.ST, JoinPair{name("s", s), name("t", ty)})
				}
			}
		}
		want := joinNaive(dec)
		for _, workers := range []int{1, 4} {
			got, _ := joinRows(t, dec, JoinOptions{Algorithm: CacheOblivious, Seed: uint64(trial), Workers: workers})
			if !sameRows(got, want) {
				t.Fatalf("trial %d workers=%d: %d rows, want %d", trial, workers, len(got), len(want))
			}
		}
	}
}

func TestJoinEmptyInput(t *testing.T) {
	var dec JoinDecomposition
	for _, workers := range []int{1, 4} {
		st, err := dec.Join(JoinOptions{Workers: workers}, func(JoinRow) { t.Fatal("no rows expected") })
		if err != nil || st.Rows != 0 {
			t.Errorf("workers=%d: empty join: stats=%v err=%v", workers, st, err)
		}
	}
}

func TestJoinRejectsBadMachine(t *testing.T) {
	var dec JoinDecomposition
	if _, err := dec.Join(JoinOptions{MemoryWords: 100, BlockWords: 33}, func(JoinRow) {}); err == nil {
		t.Error("non-power-of-two block size accepted")
	}
}
