package subgraph

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/trienum"
)

// Pattern is a small connected pattern graph H on k <= 8 vertices,
// described by its adjacency bitmask: bit j of Adj[i] set means {i, j} is
// an H-edge. Section 6 extends the paper's color-coding decomposition to
// any constant-size subgraph in the Alon class (citing Silvestri 2014);
// this type carries the pattern and its automorphism group, which the
// enumerator uses to emit every copy of H exactly once.
type Pattern struct {
	k     int
	adj   []uint8
	auts  [][]int // automorphism permutations of {0..k-1}
	order []int   // connected search order (searchOrder)
	back  []uint8 // per search step, the earlier H-neighbours
	name  string
	rule  trienum.Rule // each H-edge needs a G-edge in either orientation
}

// NewPattern builds a pattern from an edge list over vertices 0..k-1.
// The pattern must be connected (otherwise its copies are not determined
// by a single color-coded subproblem).
func NewPattern(name string, k int, edges [][2]int) (*Pattern, error) {
	if k < 2 || k > 8 {
		return nil, fmt.Errorf("subgraph: pattern order %d out of range [2,8]", k)
	}
	p := &Pattern{k: k, adj: make([]uint8, k), name: name}
	for _, e := range edges {
		i, j := e[0], e[1]
		if i < 0 || j < 0 || i >= k || j >= k || i == j {
			return nil, fmt.Errorf("subgraph: bad pattern edge {%d,%d}", i, j)
		}
		p.adj[i] |= 1 << uint(j)
		p.adj[j] |= 1 << uint(i)
	}
	if !p.connected() {
		return nil, fmt.Errorf("subgraph: pattern %q is not connected", name)
	}
	p.auts = p.automorphisms()
	p.order, p.back = p.searchOrder()
	p.rule = trienum.Rule{K: k, Pairs: p.Edges(), Either: true}
	return p, nil
}

// MustPattern is NewPattern for statically known patterns.
func MustPattern(name string, k int, edges [][2]int) *Pattern {
	p, err := NewPattern(name, k, edges)
	if err != nil {
		panic(err)
	}
	return p
}

// Predefined patterns.
var (
	// Triangle is K3.
	Triangle = MustPattern("triangle", 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	// Path3 is the path on three vertices (a wedge).
	Path3 = MustPattern("path3", 3, [][2]int{{0, 1}, {1, 2}})
	// Cycle4 is the 4-cycle.
	Cycle4 = MustPattern("cycle4", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	// Diamond is K4 minus one edge.
	Diamond = MustPattern("diamond", 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	// K4 is the 4-clique.
	K4 = MustPattern("k4", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	// Star3 is the claw K_{1,3}.
	Star3 = MustPattern("star3", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	// House is C5 plus a chord (5 vertices, 6 edges).
	House = MustPattern("house", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 4}})
)

// K returns the number of pattern vertices.
func (p *Pattern) K() int { return p.k }

// Name returns the pattern's name.
func (p *Pattern) Name() string { return p.name }

// Edges returns the pattern's edge pairs (i < j).
func (p *Pattern) Edges() [][2]int {
	var out [][2]int
	for i := 0; i < p.k; i++ {
		for j := i + 1; j < p.k; j++ {
			if p.adj[i]&(1<<uint(j)) != 0 {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Automorphisms returns |Aut(H)|.
func (p *Pattern) Automorphisms() int { return len(p.auts) }

func (p *Pattern) connected() bool {
	var seen uint8 = 1
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for j := 0; j < p.k; j++ {
			if p.adj[v]&(1<<uint(j)) != 0 && seen&(1<<uint(j)) == 0 {
				seen |= 1 << uint(j)
				queue = append(queue, j)
			}
		}
	}
	return int(popcount8(seen)) == p.k
}

func popcount8(x uint8) int {
	n := 0
	for x != 0 {
		n++
		x &= x - 1
	}
	return n
}

// automorphisms enumerates all permutations of {0..k-1} preserving adj.
func (p *Pattern) automorphisms() [][]int {
	perm := make([]int, p.k)
	for i := range perm {
		perm[i] = i
	}
	var auts [][]int
	var rec func(i int)
	used := make([]bool, p.k)
	cur := make([]int, p.k)
	rec = func(i int) {
		if i == p.k {
			auts = append(auts, append([]int(nil), cur...))
			return
		}
		for v := 0; v < p.k; v++ {
			if used[v] {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				hEdge := p.adj[i]&(1<<uint(j)) != 0
				gEdge := p.adj[cur[j]]&(1<<uint(v)) != 0
				if hEdge != gEdge {
					ok = false
					break
				}
			}
			if ok {
				used[v] = true
				cur[i] = v
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return auts
}

// searchOrder returns a position ordering in which every position after
// the first has at least one earlier H-neighbor (a connected search
// order), plus for each position the bitmask of earlier neighbors.
func (p *Pattern) searchOrder() (order []int, back []uint8) {
	order = make([]int, 0, p.k)
	back = make([]uint8, p.k)
	var placed uint8
	order = append(order, 0)
	placed = 1
	for len(order) < p.k {
		for v := 0; v < p.k; v++ {
			if placed&(1<<uint(v)) != 0 {
				continue
			}
			if p.adj[v]&placed != 0 {
				back[len(order)] = p.adj[v] & placed
				order = append(order, v)
				placed |= 1 << uint(v)
				break
			}
		}
	}
	return order, back
}

// DistFrom returns the BFS distance of every pattern position from the
// position pair {i, j} (0 for i and j themselves). Patterns are
// connected, so every position has a finite distance.
func (p *Pattern) DistFrom(i, j int) []int {
	dist := make([]int, p.k)
	for v := range dist {
		dist[v] = -1
	}
	dist[i] = 0
	queue := []int{i}
	if j != i {
		dist[j] = 0
		queue = append(queue, j)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for w := 0; w < p.k; w++ {
			if p.adj[v]&(1<<uint(w)) != 0 && dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// AnchoredOrder returns a connected search order that starts with the
// pre-placed positions i then j and continues in BFS order from the
// pair (nearer positions first, ties broken by position index), plus
// for each later position the bitmask of its H-neighbors already
// placed. Because positions are placed in nondecreasing DistFrom(i, j)
// order, every back-edge check pairs a new candidate against a placed
// vertex at most as far from the anchor — the property the
// differential kernel's bounded-closure plan relies on.
func (p *Pattern) AnchoredOrder(i, j int) (order []int, back []uint8) {
	dist := p.DistFrom(i, j)
	order = make([]int, 0, p.k)
	back = make([]uint8, p.k)
	order = append(order, i, j)
	placed := uint8(1<<uint(i) | 1<<uint(j))
	for len(order) < p.k {
		best := -1
		for v := 0; v < p.k; v++ {
			if placed&(1<<uint(v)) != 0 || p.adj[v]&placed == 0 {
				continue
			}
			if best < 0 || dist[v] < dist[best] {
				best = v
			}
		}
		back[len(order)] = p.adj[best] & placed
		order = append(order, best)
		placed |= 1 << uint(best)
	}
	return order, back
}

// IsMinimalEmbedding reports whether assign is the representative its
// Aut(H) orbit emits: the position-to-vertex tuple lexicographically
// minimal among all automorphic reshuffles — the test the enumerator
// applies before emitting, so each orbit is emitted exactly once.
func (p *Pattern) IsMinimalEmbedding(assign []uint32) bool {
	for _, sigma := range p.auts {
		for i := 0; i < p.k; i++ {
			a, b := assign[i], assign[sigma[i]]
			if a < b {
				break // current tuple is smaller than this reshuffle
			}
			if a > b {
				return false // a strictly smaller automorphic image exists
			}
		}
	}
	return true
}

// Minimize rewrites assign in place to the lexicographically minimal
// tuple among its Aut(H) images — the representative
// IsMinimalEmbedding admits. Embeddings of one vertex set that differ
// only by an automorphism normalize to identical tuples, which lets
// emission streams produced against different canonical rank orders
// (two MVCC generations, say) be compared in the caller's id space.
func (p *Pattern) Minimize(assign []uint32) {
	best := make([]uint32, p.k)
	copy(best, assign)
	tmp := make([]uint32, p.k)
	for _, sigma := range p.auts {
		for i := 0; i < p.k; i++ {
			tmp[i] = assign[sigma[i]]
		}
		for i := 0; i < p.k; i++ {
			if tmp[i] != best[i] {
				if tmp[i] < best[i] {
					copy(best, tmp)
				}
				break
			}
		}
	}
	copy(assign, best)
}

// EnumerateParallel finds every copy of the pattern in g: each set of k
// vertices carrying an H-isomorphic (not necessarily induced) subgraph is
// reported exactly once per distinct embedding modulo Aut(H). The emitted
// slice maps pattern position i to the G-vertex (rank) at that position;
// it is reused across calls.
//
// The decomposition follows Section 6: a 4-wise independent coloring with
// c colors splits the work into c^k color-tuple subproblems whose bucket
// unions are expected to be small; each subproblem the color-coded step
// lists is solved in internal memory on a worker shard (see the package
// notes). x's workers, context and unit contract, the stream's
// determinism and the returned per-worker statistics are as in
// KCliqueParallel.
func (p *Pattern) EnumerateParallel(sp *extmem.Space, g graph.Canonical, seed uint64, x trienum.Exec, emit EmitK) (Info, []extmem.Stats, error) {
	E := g.Edges.Len()
	if E == 0 {
		return Info{}, nil, x.CheckFrom(0)
	}
	c := tupleColors(E, sp.Config().M, p.k, 1<<20)
	info := Info{Colors: c}
	colorOf := hashing.NewColoring(hashing.NewRand(seed), c).Color
	_, _, ws, err := trienum.ColorCoded(x, sp, g.Edges, colorOf, c, p.rule, 0, func(shard *extmem.Space, edges extmem.Extent, off []int64, tuple []int, r *Info, out *trienum.Sink) error {
		return p.SolveTuple(shard, edges, off, c, colorOf, tuple, r, out.Tuple)
	}, emit, info.add)
	return info, ws, err
}

// SolveTuple enumerates the embeddings of one color tuple — position i
// mapped to a vertex of color tuple[i] under colorOf — over the color-pair
// buckets laid out in edges, bucket (a,b) at [off[a·c+b], off[a·c+b+1]):
// it loads the union of the buckets the tuple needs and enumerates in
// internal memory, emitting each Aut(H) orbit's lexicographically least
// embedding. It is the one pattern tuple solver: EnumerateParallel and
// the cluster shards, which lay out only the buckets of their owned color
// tuples, both call it. A tuple that the pattern's rule does not admit has
// no copy, and it returns nil.
func (p *Pattern) SolveTuple(sp *extmem.Space, edges extmem.Extent, off []int64, c int, colorOf func(uint32) uint32, tuple []int, info *Info, emit EmitK) error {
	if !p.rule.Admits(off, c, tuple) {
		return nil
	}
	// Bucket for an H-edge (i, j): G stores an edge under the color pair
	// (ξ(min), ξ(max)); since we do not know which mapped endpoint will be
	// smaller, take both (τi, τj) and (τj, τi).
	type rng struct{ lo, hi int64 }
	var ranges []rng
	var total int64
	addBucket := func(a, b int) {
		r := rng{off[a*c+b], off[a*c+b+1]}
		if r.lo == r.hi {
			return
		}
		for _, o := range ranges {
			if o == r {
				return
			}
		}
		ranges = append(ranges, r)
		total += r.hi - r.lo
	}
	for _, e := range p.Edges() {
		a, b := tuple[e[0]], tuple[e[1]]
		addBucket(a, b)
		addBucket(b, a)
	}
	info.Subproblems++
	if total > info.MaxSubproblem {
		info.MaxSubproblem = total
	}

	lease := sp.LeaseAtMost(int(total) * 3)
	defer lease.Release()
	adj := make(map[uint32][]uint32)
	addDir := func(a, b uint32) { adj[a] = append(adj[a], b) }
	for _, r := range ranges {
		for i := r.lo; i < r.hi; i++ {
			e := edges.Read(i)
			addDir(graph.U(e), graph.V(e))
			addDir(graph.V(e), graph.U(e))
		}
	}
	starts := make([]uint32, 0, len(adj))
	for v, l := range adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		starts = append(starts, v)
	}
	// Sorted start order: the embedding stream must be a pure function of
	// the subproblem, identical across runs.
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	assign := make([]uint32, p.k) // by pattern position
	ok := func(pos int, v uint32) bool { return colorOf(v) == uint32(tuple[pos]) }
	found := func(assign []uint32) {
		info.Cliques++
		emit(assign)
	}
	for _, v := range starts {
		if !ok(p.order[0], v) {
			continue
		}
		assign[p.order[0]] = v
		p.Extend(adj, p.order, p.back, assign, 1, ok, found)
	}
	return nil
}

// Extend is the one backtracking search behind pattern enumeration, both
// the color-tuple solver and the differential kernel's anchored search:
// with positions order[:step] placed in assign, it places order[step] on
// each neighbour of its first placed H-neighbour (a candidate list of
// adj, visited in list order) that is not already used, is adjacent in
// adj to every placed H-neighbour (back[step]), and passes ok (nil admits
// every vertex), then recurses. Each complete assignment that
// IsMinimalEmbedding admits goes to found; assign is reused, so found
// must copy what it keeps. The lists of adj must be sorted ascending, and
// order/back must be a connected search order with its back masks
// (searchOrder, AnchoredOrder).
func (p *Pattern) Extend(adj map[uint32][]uint32, order []int, back []uint8, assign []uint32, step int, ok func(pos int, v uint32) bool, found func(assign []uint32)) {
	if step == p.k {
		if p.IsMinimalEmbedding(assign) {
			found(assign)
		}
		return
	}
	pos := order[step]
	pivot := bits.TrailingZeros8(back[step])
	if pivot == 8 {
		return // no placed H-neighbour: only step 0, which callers place
	}
next:
	for _, v := range adj[assign[pivot]] {
		if ok != nil && !ok(pos, v) {
			continue
		}
		for _, q := range order[:step] {
			if assign[q] == v {
				continue next
			}
		}
		for j := 0; j < p.k; j++ {
			if back[step]&(1<<uint(j)) != 0 {
				if _, adjacent := slices.BinarySearch(adj[assign[j]], v); !adjacent {
					continue next
				}
			}
		}
		assign[pos] = v
		p.Extend(adj, order, back, assign, step+1, ok, found)
	}
}
