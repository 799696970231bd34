package diff

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/subgraph"
)

// edgeSet is a native undirected edge set in original-id space.
type edgeSet map[extmem.Word]struct{}

func (s edgeSet) add(a, b uint32) {
	if a != b {
		s[graph.Pack(a, b)] = struct{}{}
	}
}

func (s edgeSet) clone() edgeSet {
	out := make(edgeSet, len(s))
	for e := range s {
		out[e] = struct{}{}
	}
	return out
}

func (s edgeSet) list() graph.EdgeList {
	var el graph.EdgeList
	maxV := uint32(0)
	for e := range s {
		el.Edges = append(el.Edges, e)
		if v := graph.V(e); v > maxV {
			maxV = v
		}
	}
	sort.Slice(el.Edges, func(i, j int) bool { return el.Edges[i] < el.Edges[j] })
	el.NumVertices = int(maxV) + 1
	return el
}

// image canonicalizes an edge set into a fresh memory-backed Space and
// returns the Canonical view plus the id->rank inverse of RankToID.
func image(t *testing.T, s edgeSet) (*extmem.Space, graph.Canonical, map[uint32]uint32) {
	t.Helper()
	sp := extmem.NewSpace(extmem.Config{M: 1 << 14, B: 1 << 5})
	cg := graph.CanonicalizeList(sp, s.list())
	idToRank := make(map[uint32]uint32, len(cg.RankToID))
	for r, id := range cg.RankToID {
		idToRank[id] = uint32(r)
	}
	return sp, cg, idToRank
}

// bruteforce enumerates every copy of spec in the native edge set and
// returns the canonical id-space tuples (ascending for cliques,
// Minimize'd for patterns), deduped.
func bruteforce(s edgeSet, spec Spec) map[string][]uint32 {
	vs := make(map[uint32]struct{})
	has := func(a, b uint32) bool {
		_, ok := s[graph.Pack(a, b)]
		return ok
	}
	for e := range s {
		vs[graph.U(e)] = struct{}{}
		vs[graph.V(e)] = struct{}{}
	}
	var verts []uint32
	for v := range vs {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })

	out := make(map[string][]uint32)
	if spec.Pattern == nil {
		k := spec.K
		var rec func(start int, cur []uint32)
		rec = func(start int, cur []uint32) {
			if len(cur) == k {
				key := fmt.Sprint(cur)
				out[key] = append([]uint32(nil), cur...)
				return
			}
			for i := start; i < len(verts); i++ {
				ok := true
				for _, u := range cur {
					if !has(u, verts[i]) {
						ok = false
						break
					}
				}
				if ok {
					rec(i+1, append(cur, verts[i]))
				}
			}
		}
		rec(0, nil)
		return out
	}

	p := spec.Pattern
	k := p.K()
	edges := p.Edges()
	assign := make([]uint32, k)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			tuple := append([]uint32(nil), assign...)
			p.Minimize(tuple)
			out[fmt.Sprint(tuple)] = tuple
			return
		}
		for _, v := range verts {
			dup := false
			for i := 0; i < pos; i++ {
				if assign[i] == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			ok := true
			for _, he := range edges {
				if he[0] < pos && he[1] == pos && !has(assign[he[0]], v) {
					ok = false
					break
				}
				if he[1] < pos && he[0] == pos && !has(assign[he[1]], v) {
					ok = false
					break
				}
			}
			if ok {
				assign[pos] = v
				rec(pos + 1)
			}
		}
	}
	rec(0)
	return out
}

// setDiff returns a - b as a map keyed like bruteforce output.
func setDiff(a, b map[string][]uint32) map[string][]uint32 {
	out := make(map[string][]uint32)
	for k, v := range a {
		if _, ok := b[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// runPass runs a differential pass for spec against the image of set,
// anchored on the given id-space delta edges, and returns the emitted
// tuples mapped back to id space and normalized like bruteforce output.
func runPass(t *testing.T, set edgeSet, deltaIDs []extmem.Word, spec Spec, workers int) ([][]uint32, extmem.Stats, Info) {
	t.Helper()
	sp, cg, anchors := passImage(t, set, deltaIDs)
	pre := sp.Stats()
	var got [][]uint32
	info, err := Enumerate(nil, sp, cg, anchors, spec, workers, func(rverts []uint32) {
		ids := make([]uint32, len(rverts))
		for i, r := range rverts {
			ids[i] = cg.RankToID[r]
		}
		if spec.Pattern == nil {
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		} else {
			spec.Pattern.Minimize(ids)
		}
		got = append(got, ids)
	})
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	post := sp.Stats()
	stats := extmem.Stats{
		BlockReads:  post.BlockReads - pre.BlockReads,
		BlockWrites: post.BlockWrites - pre.BlockWrites,
	}
	return got, stats, info
}

// passImage builds set's image and maps the delta edges to its ranks.
func passImage(t *testing.T, set edgeSet, deltaIDs []extmem.Word) (*extmem.Space, graph.Canonical, []extmem.Word) {
	t.Helper()
	sp, cg, idToRank := image(t, set)
	anchors := make([]extmem.Word, 0, len(deltaIDs))
	for _, e := range deltaIDs {
		u, ok1 := idToRank[graph.U(e)]
		v, ok2 := idToRank[graph.V(e)]
		if !ok1 || !ok2 {
			t.Fatalf("delta edge %x has endpoints unknown to the image", e)
		}
		anchors = append(anchors, graph.Pack(u, v))
	}
	return sp, cg, anchors
}

func asSet(t *testing.T, tuples [][]uint32) map[string][]uint32 {
	t.Helper()
	out := make(map[string][]uint32, len(tuples))
	for _, tu := range tuples {
		key := fmt.Sprint(tu)
		if _, dup := out[key]; dup {
			t.Fatalf("tuple %v emitted twice", tu)
		}
		out[key] = tu
	}
	return out
}

func specs() []Spec {
	return []Spec{
		{K: 3},
		{K: 4},
		{K: 5},
		{Pattern: subgraph.Triangle},
		{Pattern: subgraph.Path3},
		{Pattern: subgraph.Cycle4},
		{Pattern: subgraph.Diamond},
		{Pattern: subgraph.K4},
		{Pattern: subgraph.Star3},
		{Pattern: subgraph.House},
	}
}

func specName(s Spec) string {
	if s.Pattern != nil {
		return "pattern_" + s.Pattern.Name()
	}
	return fmt.Sprintf("clique_k%d", s.K)
}

// TestDiffOracle checks the kernel against a brute-force diff of full
// enumerations on random graphs and deltas, for cliques and every
// predefined pattern, at one and several workers.
func TestDiffOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		n := uint32(8 + rng.Intn(8))
		old := make(edgeSet)
		m := 2*int(n) + rng.Intn(3*int(n))
		for i := 0; i < m; i++ {
			old.add(rng.Uint32()%n, rng.Uint32()%n)
		}
		next := old.clone()
		var oldEdges []extmem.Word
		for e := range old {
			oldEdges = append(oldEdges, e)
		}
		sort.Slice(oldEdges, func(i, j int) bool { return oldEdges[i] < oldEdges[j] })
		for i := 0; i < 3+rng.Intn(4) && len(oldEdges) > 0; i++ {
			delete(next, oldEdges[rng.Intn(len(oldEdges))])
		}
		for i := 0; i < 3+rng.Intn(4); i++ {
			a, b := rng.Uint32()%n, n+uint32(rng.Intn(3)) // some brand-new vertices
			if rng.Intn(2) == 0 {
				b = rng.Uint32() % n
			}
			if a != b {
				next[graph.Pack(a, b)] = struct{}{}
			}
		}
		if len(old) == 0 || len(next) == 0 {
			continue
		}
		// Effective delta: exactly the edges present in one generation
		// and absent in the other (the kernel's anchor precondition).
		var addIDs, removeIDs []extmem.Word
		for e := range next {
			if _, ok := old[e]; !ok {
				addIDs = append(addIDs, e)
			}
		}
		for e := range old {
			if _, ok := next[e]; !ok {
				removeIDs = append(removeIDs, e)
			}
		}
		for _, spec := range specs() {
			spec := spec
			name := fmt.Sprintf("trial%d/%s", trial, specName(spec))
			t.Run(name, func(t *testing.T) {
				before := bruteforce(old, spec)
				after := bruteforce(next, spec)
				wantAdded := setDiff(after, before)
				wantRemoved := setDiff(before, after)

				gotAdded, addStats, _ := runPass(t, next, addIDs, spec, 1)
				gotRemoved, remStats, _ := runPass(t, old, removeIDs, spec, 1)
				if !reflect.DeepEqual(asSet(t, gotAdded), wantAdded) {
					t.Fatalf("added mismatch:\n got %v\nwant %v", asSet(t, gotAdded), wantAdded)
				}
				if !reflect.DeepEqual(asSet(t, gotRemoved), wantRemoved) {
					t.Fatalf("removed mismatch:\n got %v\nwant %v", asSet(t, gotRemoved), wantRemoved)
				}

				// Worker invariance: identical emissions in identical
				// order, identical block I/O.
				gotAdded4, addStats4, _ := runPass(t, next, addIDs, spec, 4)
				gotRemoved4, remStats4, _ := runPass(t, old, removeIDs, spec, 4)
				if !reflect.DeepEqual(gotAdded, gotAdded4) || !reflect.DeepEqual(gotRemoved, gotRemoved4) {
					t.Fatalf("emissions differ across workers")
				}
				if addStats != addStats4 || remStats != remStats4 {
					t.Fatalf("stats differ across workers: %+v vs %+v / %+v vs %+v",
						addStats, addStats4, remStats, remStats4)
				}
			})
		}
	}
}

// TestDiffEdgeCases covers the empty delta, a delta that only adds
// never-seen vertices, and anchor duplicates.
func TestDiffEdgeCases(t *testing.T) {
	s := make(edgeSet)
	s.add(0, 1)
	s.add(1, 2)
	s.add(0, 2)

	got, _, info := runPass(t, s, nil, Spec{K: 3}, 1)
	if len(got) != 0 || info.Matches != 0 || info.Scans != 0 {
		t.Fatalf("empty delta: got %v, info %+v", got, info)
	}

	// Adding a pendant triangle on fresh vertices: only the new triangle
	// must come out, and duplicate anchors must not double-emit.
	next := s.clone()
	next.add(2, 10)
	next.add(2, 11)
	next.add(10, 11)
	delta := []extmem.Word{
		graph.Pack(2, 10), graph.Pack(2, 11), graph.Pack(10, 11),
		graph.Pack(2, 10), // duplicate
	}
	got, _, info = runPass(t, next, delta, Spec{K: 3}, 1)
	if len(got) != 1 || !reflect.DeepEqual(got[0], []uint32{2, 10, 11}) {
		t.Fatalf("pendant triangle: got %v", got)
	}
	if info.Anchors != 3 {
		t.Fatalf("duplicate anchors not deduped: %+v", info)
	}

	// Removing one edge of the original triangle retracts it.
	got, _, _ = runPass(t, s, []extmem.Word{graph.Pack(0, 1)}, Spec{K: 3}, 1)
	if len(got) != 1 || !reflect.DeepEqual(got[0], []uint32{0, 1, 2}) {
		t.Fatalf("retraction: got %v", got)
	}
}

// TestPlan pins the closure radii the kernel derives for the predefined
// families; these are load-bearing for correctness (too shallow would
// silently drop matches far from the anchor).
func TestPlan(t *testing.T) {
	cases := []struct {
		spec  Spec
		depth int
		final bool
	}{
		{Spec{K: 3}, 1, false},
		{Spec{K: 4}, 1, true},
		{Spec{K: 5}, 1, true},
		{Spec{Pattern: subgraph.Triangle}, 1, false},
		{Spec{Pattern: subgraph.Path3}, 1, false},
		{Spec{Pattern: subgraph.Cycle4}, 1, true},
		{Spec{Pattern: subgraph.Diamond}, 1, true},
		{Spec{Pattern: subgraph.K4}, 1, true},
		{Spec{Pattern: subgraph.Star3}, 1, false},
		{Spec{Pattern: subgraph.House}, 2, false},
	}
	for _, c := range cases {
		depth, final := plan(c.spec)
		if depth != c.depth || final != c.final {
			t.Errorf("%s: plan = (%d, %v), want (%d, %v)",
				specName(c.spec), depth, final, c.depth, c.final)
		}
	}
}

// TestDiffMultiChunk runs passes of more than three anchor chunks, so the
// pool hands several chunks' copies on in order. At every worker count
// the emissions, their order, the Info and the block I/O must be those of
// Workers=1, and the copies exactly the brute-force difference.
func TestDiffMultiChunk(t *testing.T) {
	old, next, addIDs := multiChunkInstance()
	for _, spec := range []Spec{{K: 3}, {K: 4}, {Pattern: subgraph.Diamond}} {
		t.Run(specName(spec), func(t *testing.T) {
			want := setDiff(bruteforce(next, spec), bruteforce(old, spec))
			base, baseStats, baseInfo := runPass(t, next, addIDs, spec, 1)
			if baseInfo.Anchors <= 3*anchorChunk {
				t.Fatalf("%d anchors: want more than %d", baseInfo.Anchors, 3*anchorChunk)
			}
			if !reflect.DeepEqual(asSet(t, base), want) {
				t.Fatalf("added mismatch: got %d copies, want %d", len(base), len(want))
			}
			for _, workers := range []int{2, 4} {
				got, stats, info := runPass(t, next, addIDs, spec, workers)
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("workers=%d: emissions differ from workers=1", workers)
				}
				if stats != baseStats || !reflect.DeepEqual(info, baseInfo) {
					t.Fatalf("workers=%d: stats %+v info %+v, workers=1 %+v %+v", workers, stats, info, baseStats, baseInfo)
				}
			}
		})
	}
}

// multiChunkInstance is a 700-edge graph on 70 vertices and the graph
// after 3·anchorChunk+5 added edges, which anchor four chunks.
func multiChunkInstance() (old, next edgeSet, addIDs []extmem.Word) {
	rng := rand.New(rand.NewSource(7))
	const n = 70
	old = make(edgeSet)
	for len(old) < 700 {
		old.add(rng.Uint32()%n, rng.Uint32()%n)
	}
	next = old.clone()
	for len(addIDs) < 3*anchorChunk+5 {
		a, b := rng.Uint32()%n, rng.Uint32()%n
		if _, ok := next[graph.Pack(a, b)]; a != b && !ok {
			next.add(a, b)
			addIDs = append(addIDs, graph.Pack(a, b))
		}
	}
	return old, next, addIDs
}

// TestDiffCancellation: cancelling a pass after n copies stops it with
// the context's error, having emitted a proper prefix of the one-worker
// stream (the copies racing the cancellation included), and leaves no
// worker behind.
func TestDiffCancellation(t *testing.T) {
	const n = 50
	_, next, addIDs := multiChunkInstance()
	for _, spec := range []Spec{{K: 3}, {K: 4}, {Pattern: subgraph.Diamond}} {
		sp, cg, anchors := passImage(t, next, addIDs)
		var full [][]uint32
		if _, err := Enumerate(nil, sp, cg, anchors, spec, 1, func(vs []uint32) {
			full = append(full, slices.Clone(vs))
		}); err != nil {
			t.Fatal(err)
		}
		if len(full) < 4*n {
			t.Fatalf("%s: %d copies; the stream must outlast the cancellation", specName(spec), len(full))
		}
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/workers=%d", specName(spec), workers)
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			var got [][]uint32
			_, err := Enumerate(ctx, sp, cg, anchors, spec, workers, func(vs []uint32) {
				got = append(got, slices.Clone(vs))
				if len(got) == n {
					cancel()
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: err %v, want %v", name, err, context.Canceled)
			}
			if len(got) < n || len(got) >= len(full) {
				t.Errorf("%s: %d copies, want at least %d and fewer than the full %d", name, len(got), n, len(full))
			}
			if !slices.EqualFunc(got, full[:min(len(got), len(full))], slices.Equal[[]uint32]) {
				t.Errorf("%s: the %d copies are not a prefix of the full stream", name, len(got))
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before+1 {
				t.Errorf("%s leaked goroutines: %d before, %d after", name, before, after)
			}
		}
	}
}
