// Package diff is the differential enumeration kernel behind standing
// queries: given one frozen generation's canonical image and the set of
// delta edges that distinguishes it from its neighbor generation, it
// enumerates exactly the subgraph copies (triangles, k-cliques, or
// pattern embeddings modulo Aut(H)) whose image contains at least one
// delta edge — the copies an Update created on the new image, or
// destroyed on the old one.
//
// The algorithm is the delta-restricted degenerate form of the paper's
// Section 6 trie join: every changed copy must touch a delta edge, so
// anchoring the join's first leg on the delta bounds each subproblem by
// the delta's neighborhood instead of a color bucket's. Concretely the
// kernel runs two phases on the session Space it is handed:
//
//  1. Closure scans. A changed copy containing anchor edge {u, v} maps
//     every pattern position at H-distance d from the anchored edge to
//     a G-vertex within distance d of {u, v}. The kernel therefore
//     collects the adjacency of the delta's BFS closure by `depth`
//     sequential scans of the canonical edge extent — round r reads
//     every edge once and keeps the full neighbor lists of the
//     frontier (the vertices discovered at distance r) — where depth
//     is the largest anchored H-distance (1 for cliques). When the
//     pattern has an H-edge whose endpoints can both land at distance
//     depth (k-cliques with k >= 4, or patterns like cycle4), one
//     final scan collects the closure-internal edges of the outermost
//     layer, so every membership probe the search needs is answered
//     natively. Cost: (depth [+1]) · scan(E) block I/Os, independent
//     of the anchor count; the adjacency lists are leased native
//     memory, O(closure volume) words.
//
//  2. Anchored search. Anchors are visited in sorted order. For
//     cliques, the candidates are the sorted intersection of the two
//     endpoints' neighbor lists, extended by the same
//     ascending-candidate DFS the full enumerator uses. For patterns,
//     the anchor is pre-placed on every H-edge in both orientations
//     and completed along Pattern.AnchoredOrder with native back-edge
//     checks; Pattern.IsMinimalEmbedding keeps one representative per
//     Aut(H) orbit, exactly as the full enumerator does. A copy whose
//     image contains several anchors is emitted only from its minimal
//     one (the smallest packed delta edge), so the union over anchors
//     is exactly-once. This phase reads no blocks at all — it is pure
//     in-memory work on the leased adjacency — so the kernel's I/O
//     statistics are a function of the image and the delta alone.
//
// Determinism contract, inherited by Graph.Subscribe: the emission
// order is a pure function of (canonical image, anchors, spec) —
// anchors ascending, then the deterministic per-anchor search order —
// and both the emissions and the Space's I/O statistics are invariant
// in workers. Phase 1 (all the I/O) runs on the caller. Phase 2 runs on
// trienum.RunTuples, the runner the enumeration engines share: each
// fixed-size chunk of anchors is one task that streams its copies, and
// the runner emits the chunks' copies in chunk order, so the worker
// count decides only which chunks run at once.
package diff

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/subgraph"
	"repro/internal/trienum"
)

// Spec selects the subgraph family a differential pass enumerates:
// k-cliques when Pattern is nil (K >= 3; 3 is triangles), embeddings of
// Pattern modulo Aut(H) otherwise.
type Spec struct {
	K       int
	Pattern *subgraph.Pattern
}

// Info reports one differential pass.
type Info struct {
	// Matches counts the emitted copies.
	Matches uint64
	// Scans counts the sequential passes over the canonical edge extent
	// (the closure rounds plus the final closure-internal scan, if any).
	Scans int
	// Anchors is the number of distinct delta edges anchoring the pass.
	Anchors int
}

// anchorChunk is the fixed parallel work grain: each chunk of this many
// anchors is one pool task, and the chunks' copies are emitted in chunk
// order, so the stream is identical at every worker count.
const anchorChunk = 64

// Enumerate runs one differential pass over g — the canonical image of
// the generation the emissions are counted against: the new generation
// for added copies (anchors = effective added edges), the old one for
// removed copies (anchors = effective removed edges). anchors are
// packed rank-space edges that must be present in g.Edges; duplicates
// are tolerated. emit receives each changed copy exactly once as
// pattern-position-to-rank assignments (for cliques: the k member
// ranks, ascending); the slice is only valid during the call. workers
// bounds the search parallelism; emissions and the Space's statistics
// are invariant in it. ctx is checked cooperatively during scans and
// between anchors; it may be nil. A cancelled pass returns ctx's error,
// and the copies emitted before it are a prefix of the full stream.
func Enumerate(ctx context.Context, sp *extmem.Space, g graph.Canonical, anchors []extmem.Word, spec Spec, workers int, emit func(verts []uint32)) (Info, error) {
	var info Info
	k := spec.K
	if spec.Pattern != nil {
		k = spec.Pattern.K()
	} else if k < 3 {
		return info, fmt.Errorf("diff: clique size %d out of range (need k >= 3)", k)
	}

	anchors = dedupSorted(anchors)
	info.Anchors = len(anchors)
	if len(anchors) == 0 || g.Edges.Len() == 0 || k < 2 {
		return info, nil
	}

	anchorSet := make(map[extmem.Word]extmem.Word, len(anchors))
	for _, e := range anchors {
		anchorSet[e] = e
	}

	depth, final := plan(spec)
	adj, err := buildClosure(ctx, sp, g.Edges, anchors, depth, final, &info)
	if err != nil {
		return info, err
	}
	words := 2 * len(anchors)
	for _, l := range adj {
		words += len(l) + 2
	}
	lease := sp.LeaseAtMost(words)
	defer lease.Release()

	var plans []patternSeed
	if spec.Pattern != nil {
		plans = seedPlans(spec.Pattern)
	}

	// One RunTuples task per chunk of anchors, streaming the chunk's
	// copies. The search reads no blocks, so the shards are native.
	cfg := sp.Config()
	cfg.Native = true
	chunks := (len(anchors) + anchorChunk - 1) / anchorChunk
	_, err = trienum.RunTuples(trienum.Exec{Workers: workers, Ctx: ctx}, cfg, nil, k, chunks, func(i int) func(*extmem.Space, *trienum.Sink) struct{} {
		return func(_ *extmem.Space, out *trienum.Sink) struct{} {
			for _, e := range anchors[i*anchorChunk : min((i+1)*anchorChunk, len(anchors))] {
				if ctxutil.Err(ctx) != nil {
					break // the pool delivers nothing more: the output stays a prefix
				}
				if spec.Pattern != nil {
					anchorPattern(spec.Pattern, plans, e, adj, anchorSet, out.Tuple)
				} else {
					anchorClique(k, e, adj, anchorSet, out.Tuple)
				}
			}
			return struct{}{}
		}
	}, func(verts []uint32) {
		info.Matches++
		if emit != nil {
			emit(verts)
		}
	}, nil)
	if err == nil {
		err = ctxutil.Err(ctx)
	}
	return info, err
}

// plan returns the closure radius (scan rounds collecting full
// adjacency) and whether the final closure-internal scan is needed —
// it is exactly when some anchoring leaves an H-edge with both
// endpoints at the maximal anchored distance, so a membership probe
// could pair two outermost-layer vertices.
func plan(spec Spec) (depth int, final bool) {
	if spec.Pattern == nil {
		return 1, spec.K > 3
	}
	p := spec.Pattern
	edges := p.Edges()
	dists := make([][]int, len(edges))
	for i, he := range edges {
		dists[i] = p.DistFrom(he[0], he[1])
		for _, d := range dists[i] {
			if d > depth {
				depth = d
			}
		}
	}
	for i, he := range edges {
		for _, pq := range edges {
			if pq[0] == he[0] || pq[0] == he[1] || pq[1] == he[0] || pq[1] == he[1] {
				continue
			}
			m := dists[i][pq[0]]
			if dists[i][pq[1]] < m {
				m = dists[i][pq[1]]
			}
			if m >= depth {
				final = true
			}
		}
	}
	return depth, final
}

// buildClosure collects sorted neighbor lists for the BFS closure of
// the anchor endpoints: full lists for vertices within depth-1 of an
// anchor, and (when final is set) closure-internal lists for the
// outermost layer. Each list is written by exactly one scan, and each
// scan appends neighbors in ascending order (the canonical extent is
// sorted with the smaller endpoint in the high bits), so every list
// comes out sorted without a sort pass.
func buildClosure(ctx context.Context, sp *extmem.Space, edges extmem.Extent, anchors []extmem.Word, depth int, final bool, info *Info) (map[uint32][]uint32, error) {
	adj := make(map[uint32][]uint32)
	seen := make(map[uint32]struct{})
	done := make(map[uint32]struct{})
	var frontier []uint32
	add := func(v uint32) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			frontier = append(frontier, v)
		}
	}
	for _, e := range anchors {
		add(graph.U(e))
		add(graph.V(e))
	}

	n := edges.Len()
	scan := func(visit func(u, v uint32)) error {
		info.Scans++
		for i := int64(0); i < n; i++ {
			if i%8192 == 0 {
				if err := ctxutil.Err(ctx); err != nil {
					return err
				}
			}
			e := edges.Read(i)
			visit(graph.U(e), graph.V(e))
		}
		return nil
	}

	for r := 0; r < depth && len(frontier) > 0; r++ {
		inFrontier := make(map[uint32]struct{}, len(frontier))
		for _, v := range frontier {
			inFrontier[v] = struct{}{}
		}
		frontier = frontier[:0]
		err := scan(func(u, v uint32) {
			if _, ok := inFrontier[u]; ok {
				adj[u] = append(adj[u], v)
				add(v)
			}
			if _, ok := inFrontier[v]; ok {
				adj[v] = append(adj[v], u)
				add(u)
			}
		})
		if err != nil {
			return nil, err
		}
		for v := range inFrontier {
			done[v] = struct{}{}
		}
	}
	if final {
		err := scan(func(u, v uint32) {
			_, su := seen[u]
			_, sv := seen[v]
			if !su || !sv {
				return
			}
			if _, ok := done[u]; !ok {
				adj[u] = append(adj[u], v)
			}
			if _, ok := done[v]; !ok {
				adj[v] = append(adj[v], u)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return adj, nil
}

// anchorClique emits every k-clique through anchor edge e that has no
// smaller anchor among its edges: candidates are the common neighbors
// of the endpoints, extended ascending as in the full enumerator.
func anchorClique(k int, e extmem.Word, adj map[uint32][]uint32, anchorSet map[extmem.Word]extmem.Word, emit func(verts []uint32)) {
	u, v := graph.U(e), graph.V(e)
	cands := intersectSorted(adj[u], adj[v])
	if len(cands) < k-2 {
		return
	}
	verts := make([]uint32, 2, k)
	verts[0], verts[1] = u, v
	sorted := make([]uint32, k)
	var rec func(cands []uint32)
	rec = func(cands []uint32) {
		for i, w := range cands {
			verts = append(verts, w)
			if len(verts) == k {
				if minimalAnchor(verts, e, anchorSet) {
					copy(sorted, verts)
					slices.Sort(sorted)
					emit(sorted)
				}
			} else {
				rec(intersectSorted(cands[i+1:], adj[w]))
			}
			verts = verts[:len(verts)-1]
		}
	}
	rec(cands)
}

// patternSeed is one way to pre-place an anchor edge on the pattern: an
// H-edge, an orientation, and the anchored search order completing it.
type patternSeed struct {
	i, j  int // anchored positions, in placement order
	order []int
	back  []uint8
}

func seedPlans(p *subgraph.Pattern) []patternSeed {
	var plans []patternSeed
	for _, he := range p.Edges() {
		for _, s := range [2][2]int{{he[0], he[1]}, {he[1], he[0]}} {
			order, back := p.AnchoredOrder(s[0], s[1])
			plans = append(plans, patternSeed{i: s[0], j: s[1], order: order, back: back})
		}
	}
	return plans
}

// anchorPattern emits every embedding (modulo Aut(H)) whose image
// contains anchor edge e and no smaller anchor: the anchor is
// pre-placed on every H-edge in both orientations and completed along
// the anchored search order. A given minimal-representative tuple maps
// exactly one H-edge onto the anchor pair in exactly one orientation,
// so the seeds never produce a tuple twice.
func anchorPattern(p *subgraph.Pattern, plans []patternSeed, e extmem.Word, adj map[uint32][]uint32, anchorSet map[extmem.Word]extmem.Word, emit func(assign []uint32)) {
	u, v := graph.U(e), graph.V(e)
	assign := make([]uint32, p.K())
	found := func(assign []uint32) {
		if minimalEmbeddingAnchor(p, assign, e, anchorSet) {
			emit(assign)
		}
	}
	for _, seed := range plans {
		assign[seed.i], assign[seed.j] = u, v
		p.Extend(adj, seed.order, seed.back, assign, 2, nil, found)
	}
}

// minimalAnchor reports whether e is the smallest anchor among the
// pairs of the clique's members — the exactly-once rule for copies
// touching several delta edges.
func minimalAnchor(verts []uint32, e extmem.Word, anchorSet map[extmem.Word]extmem.Word) bool {
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			w := graph.Pack(verts[i], verts[j])
			if w < e {
				if _, ok := anchorSet[w]; ok {
					return false
				}
			}
		}
	}
	return true
}

// minimalEmbeddingAnchor is minimalAnchor over the embedding's image
// edges (only pairs carrying an H-edge count).
func minimalEmbeddingAnchor(p *subgraph.Pattern, assign []uint32, e extmem.Word, anchorSet map[extmem.Word]extmem.Word) bool {
	for _, he := range p.Edges() {
		w := graph.Pack(assign[he[0]], assign[he[1]])
		if w < e {
			if _, ok := anchorSet[w]; ok {
				return false
			}
		}
	}
	return true
}

// intersectSorted returns the ascending intersection of two sorted
// lists.
func intersectSorted(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// dedupSorted sorts a copy of ws ascending and drops duplicates.
func dedupSorted(ws []extmem.Word) []extmem.Word {
	out := slices.Clone(ws)
	slices.Sort(out)
	return slices.Compact(out)
}
