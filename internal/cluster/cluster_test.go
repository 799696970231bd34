package cluster

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func testManifest(colors, shards int) *Manifest {
	ranges, err := PlanRanges(colors, shards)
	if err != nil {
		panic(err)
	}
	return &Manifest{
		Version:     ManifestVersion,
		Colors:      colors,
		Seed:        7,
		MemoryWords: 1 << 16,
		BlockWords:  1 << 7,
		Shards:      ranges,
	}
}

func TestPlanRanges(t *testing.T) {
	for _, tc := range []struct{ colors, shards int }{
		{4, 1}, {4, 2}, {4, 4}, {5, 2}, {7, 3}, {32, 5},
	} {
		ranges, err := PlanRanges(tc.colors, tc.shards)
		if err != nil {
			t.Fatalf("PlanRanges(%d, %d): %v", tc.colors, tc.shards, err)
		}
		next := uint32(0)
		for i, sh := range ranges {
			if sh.Index != i || sh.Lo != next || sh.Hi <= sh.Lo {
				t.Fatalf("PlanRanges(%d, %d)[%d] = %+v, want contiguous from %d", tc.colors, tc.shards, i, sh, next)
			}
			next = sh.Hi
		}
		if next != uint32(tc.colors) {
			t.Fatalf("PlanRanges(%d, %d) covers [0, %d)", tc.colors, tc.shards, next)
		}
	}
	if _, err := PlanRanges(2, 3); err == nil {
		t.Fatal("PlanRanges(2, 3) should fail: more shards than colors")
	}
	if _, err := PlanRanges(4, 0); err == nil {
		t.Fatal("PlanRanges(4, 0) should fail")
	}
}

func TestManifestValidate(t *testing.T) {
	m := testManifest(8, 3)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := *m
	bad.Version = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("bad version accepted")
	}
	bad = *m
	bad.Colors = MaxColors + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized color count accepted")
	}
	bad = *m
	bad.Shards = append([]Shard{}, m.Shards...)
	bad.Shards[1].Lo++
	if err := bad.Validate(); err == nil {
		t.Fatal("gap in ranges accepted")
	}
	bad = *m
	bad.Shards = bad.Shards[:2]
	if err := bad.Validate(); err == nil {
		t.Fatal("ranges not covering [0, C) accepted")
	}
}

func TestShardForHoldsOwns(t *testing.T) {
	m := testManifest(8, 3) // ranges [0,2) [2,5) [5,8)
	for c := uint32(0); c < 8; c++ {
		i := m.ShardFor(c)
		if !m.Owns(i, c) {
			t.Fatalf("ShardFor(%d) = %d but Owns is false", c, i)
		}
		owners := 0
		for j := range m.Shards {
			if m.Owns(j, c) {
				owners++
			}
			// The suffix view: shard j holds color c iff Lo_j <= c.
			if got, want := m.Holds(j, c), m.Shards[j].Lo <= c; got != want {
				t.Fatalf("Holds(%d, %d) = %v, want %v", j, c, got, want)
			}
		}
		if owners != 1 {
			t.Fatalf("color %d owned by %d shards, want exactly 1", c, owners)
		}
	}
}

// TestOwnedTuplesPartition pins the exactly-once contract: across any
// shard plan, the owned tuple sets are disjoint, lexicographically
// ordered within a shard, and their union is the full nondecreasing
// tuple family over [0, C).
func TestOwnedTuplesPartition(t *testing.T) {
	const colors = 5
	for _, k := range []int{1, 2, 3, 4} {
		var all [][]uint32
		var rec func(t []uint32, lo uint32)
		rec = func(tu []uint32, lo uint32) {
			if len(tu) == k {
				all = append(all, append([]uint32{}, tu...))
				return
			}
			for c := lo; c < colors; c++ {
				rec(append(tu, c), c)
			}
		}
		rec(nil, 0)

		for _, shards := range []int{1, 2, 4, 5} {
			m := testManifest(colors, shards)
			var gathered [][]uint32
			for i := range m.Shards {
				var prev []uint32
				err := m.OwnedTuples(i, k, func(tu []uint32) error {
					if prev != nil && CompareTuples(prev, tu) >= 0 {
						t.Fatalf("shard %d tuples out of order: %v then %v", i, prev, tu)
					}
					prev = append(prev[:0], tu...)
					if got := m.ShardFor(tu[0]); got != i {
						t.Fatalf("shard %d enumerated tuple %v owned by shard %d", i, tu, got)
					}
					gathered = append(gathered, append([]uint32{}, tu...))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(gathered) != len(all) {
				t.Fatalf("k=%d shards=%d: gathered %d tuples, want %d", k, shards, len(gathered), len(all))
			}
			seen := map[string]bool{}
			for _, tu := range gathered {
				key := keyOf(tu)
				if seen[key] {
					t.Fatalf("k=%d shards=%d: tuple %v enumerated twice", k, shards, tu)
				}
				seen[key] = true
			}
		}
	}
}

func keyOf(t []uint32) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}

func TestSortTuples(t *testing.T) {
	flat := []uint32{
		3, 1, 2,
		1, 2, 3,
		1, 2, 2,
		0, 9, 9,
	}
	SortTuples(flat, 3)
	want := []uint32{
		0, 9, 9,
		1, 2, 2,
		1, 2, 3,
		3, 1, 2,
	}
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("SortTuples = %v, want %v", flat, want)
	}
}

func TestManifestRoundtrip(t *testing.T) {
	m := testManifest(8, 3)
	m.Vertices = 100
	m.Edges = 400
	for i := range m.Shards {
		m.Shards[i].Image = filepath.Join(".", "sub", "shard.img")
	}
	path := filepath.Join(t.TempDir(), ManifestName)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
	if got.ImagePath(path, 1) != filepath.Join(filepath.Dir(path), "sub", "shard.img") {
		t.Fatalf("ImagePath = %q", got.ImagePath(path, 1))
	}
}

// TestColoringStable pins the cluster coloring as a pure function of
// (seed, colors, vertex id): two manifests with the same parameters
// agree color for color, and every color is in range.
func TestColoringStable(t *testing.T) {
	a := testManifest(8, 2).Coloring()
	b := testManifest(8, 4).Coloring() // shard plan must not matter
	for v := uint32(0); v < 10000; v++ {
		ca, cb := a.Color(v), b.Color(v)
		if ca != cb {
			t.Fatalf("coloring depends on shard plan: color(%d) = %d vs %d", v, ca, cb)
		}
		if ca >= 8 {
			t.Fatalf("color(%d) = %d out of range", v, ca)
		}
	}
}

// TestNextOrdering: from a nondecreasing tuple, NextOrdering visits every
// distinct ordering of the multiset exactly once, in lexicographic order.
func TestNextOrdering(t *testing.T) {
	for _, tc := range []struct {
		tuple []int
		want  int // distinct orderings: k! over the multiplicities' factorials
	}{
		{[]int{3}, 1}, {[]int{1, 1, 1}, 1}, {[]int{0, 0, 1}, 3}, {[]int{0, 1, 2}, 6},
		{[]int{0, 0, 1, 2}, 12}, {[]int{0, 0, 1, 1}, 6}, {[]int{0, 1, 2, 3, 4}, 120},
	} {
		o := append([]int{}, tc.tuple...)
		seen := map[string]bool{}
		var prev []int
		for more := true; more; more = NextOrdering(o) {
			if prev != nil && slices.Compare(prev, o) >= 0 {
				t.Fatalf("%v: ordering %v after %v", tc.tuple, o, prev)
			}
			if s := fmt.Sprint(o); seen[s] {
				t.Fatalf("%v: ordering %v visited twice", tc.tuple, o)
			} else {
				seen[s] = true
			}
			prev = append(prev[:0], o...)
		}
		if len(seen) != tc.want {
			t.Fatalf("%v: %d orderings, want %d", tc.tuple, len(seen), tc.want)
		}
		if !slices.Equal(o, prev) {
			t.Fatalf("%v: the last call changed the tuple to %v", tc.tuple, o)
		}
	}
}

// TestCheckQuery pins the cluster's query rules: triangles only with the
// cache-aware algorithm, C^k ≤ 2^22 orderings, and no k above 22 even for
// one color.
func TestCheckQuery(t *testing.T) {
	for _, tc := range []struct {
		kind, algorithm string
		colors, k       int
		ok              bool
	}{
		{"triangles", "", 4, 3, true}, {"triangles", TriangleAlgorithm, 4, 3, true},
		{"triangles", "deterministic", 4, 3, false}, {"cliques", "", 4, 11, true},
		{"cliques", "", 4, 12, false}, {"match", "", 32, 4, true}, {"match", "", 32, 5, false},
		{"cliques", "", 21, 5, true}, {"cliques", "", 22, 5, false},
		{"cliques", "", 1, 22, true}, {"cliques", "", 1, 23, false}, {"cliques", "", 2, 22, true},
		{"cliques", "", 32, 1 << 40, false},
	} {
		if err := CheckQuery(tc.kind, tc.algorithm, tc.colors, tc.k); (err == nil) != tc.ok {
			t.Errorf("CheckQuery(%q, %q, %d, %d) = %v, want ok=%v", tc.kind, tc.algorithm, tc.colors, tc.k, err, tc.ok)
		}
	}
}
