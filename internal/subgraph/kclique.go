// Package subgraph implements the extension sketched in Section 6 of the
// paper (crediting Silvestri, "Subgraph Enumeration in Massive Graphs"):
// enumerating k-cliques in O(E^(k/2)/(M^(k/2−1)·B)) expected I/Os by the
// same color-coding decomposition as the triangle algorithm — c = sqrt(E/M)
// colors split the problem into c^k subproblems of expected size O(k²·M),
// each solved in internal memory.
//
// Both families, cliques (KCliqueParallel) and connected patterns
// (Pattern.EnumerateParallel), run the triangle engines' color-coded step,
// trienum.ColorCoded, at their k. The color tuples share nothing once the
// color-pair buckets are laid out, so each tuple that can hold a match is
// a task of the trienum worker pool, on a cold worker shard, and a
// decomposition unit; the emissions are replayed in tuple order, so the
// stream, Info and summed statistics are identical at every worker count.
package subgraph

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
	"repro/internal/trienum"
)

// EmitK receives each k-clique exactly once as strictly increasing ranks.
// The slice is reused between calls; copy it to retain.
type EmitK func(verts []uint32)

// Info reports decomposition statistics.
type Info struct {
	// Cliques counts the enumerated copies (k-cliques for KCliqueParallel,
	// pattern embeddings modulo Aut(H) for Pattern.EnumerateParallel).
	Cliques     uint64
	Colors      int
	Subproblems int
	// MaxSubproblem is the largest subproblem edge count actually loaded,
	// to compare against the O(k²·M) expectation.
	MaxSubproblem int64
}

// KCliqueParallel enumerates all k-cliques (k >= 3) of g with the
// color-coded step (see the package notes), with x's workers and context.
// Emission order follows the decomposition, not any global order, and is
// the same at every x.Workers. x.Ctx (which may be nil) is checked
// cooperatively between color-tuple subproblems; on cancellation the
// enumeration stops early and returns x.Ctx.Err(), with the cliques
// already emitted forming a prefix of the full stream. Each color tuple
// the step lists is a decomposition unit, in lexicographic order:
// x.From skips the tuples before it (ErrFrom past the last), Info's
// Subproblems and MaxSubproblem then covering only the tuples run. It
// returns the per-worker statistics, which sp's Stats do not include.
//
// The coloring has c colors, c the smallest power of two with
// c² >= ⌊E/M⌋, halved while the c^k color tuples exceed 2^22 so the tuple
// loop stays tractable for the larger k this package exists for. The
// edges are distributed into the c² color-pair buckets by
// graph.ColorBuckets, and each tuple is solved on flat tables
// (CliqueTables).
func KCliqueParallel(sp *extmem.Space, g graph.Canonical, k int, seed uint64, x trienum.Exec, emit EmitK) (Info, []extmem.Stats, error) {
	if k < 3 {
		return Info{}, nil, fmt.Errorf("subgraph: k must be at least 3, got %d", k)
	}
	E := g.Edges.Len()
	if int64(k-1) > 2*E/int64(k) {
		// A k-clique has C(k,2) edges; with fewer there is nothing to
		// find, and nothing below is sized by k until this holds.
		return Info{}, nil, x.CheckFrom(0)
	}
	c := tupleColors(E, sp.Config().M, k, 1<<22)
	info := Info{Colors: c}
	// A k-clique v1<...<vk with colors (ξ(v1),...,ξ(vk)) is found in
	// exactly that tuple's subproblem. The workers reuse tables from
	// tuple to tuple.
	var tables sync.Pool
	colorOf := hashing.NewColoring(hashing.NewRand(seed), c).Color
	_, _, ws, err := trienum.ColorCoded(x, sp, g.Edges, colorOf, c, trienum.CliqueRule(k), 0, func(shard *extmem.Space, edges extmem.Extent, off []int64, tuple []int, r *Info, out *trienum.Sink) error {
		t, _ := tables.Get().(*CliqueTables)
		if t == nil {
			t = new(CliqueTables)
		}
		defer tables.Put(t)
		return t.Solve(shard, edges, off, c, tuple, r, out.Tuple)
	}, emit, info.add)
	return info, ws, err
}

// add merges one color tuple's Info into the run's.
func (i *Info) add(t Info) {
	i.Cliques += t.Cliques
	i.Subproblems += t.Subproblems
	i.MaxSubproblem = max(i.MaxSubproblem, t.MaxSubproblem)
}

// KClique is KCliqueParallel on one worker, under ctx (which may be nil),
// with the worker's statistics absorbed into sp's. It exists only for
// bench/replay.go, which pins this signature, and goes when the
// phase-ledger item deletes the replay.
func KClique(ctx context.Context, sp *extmem.Space, g graph.Canonical, k int, seed uint64, emit EmitK) (Info, error) {
	info, ws, err := KCliqueParallel(sp, g, k, seed, trienum.Exec{Workers: 1, Ctx: ctx}, emit)
	for _, w := range ws {
		sp.Absorb(w)
	}
	return info, err
}

// tupleColors is the color count of the Section 6 decomposition: the
// smallest power of two c with c² >= ⌊E/M⌋, halved while the c^k color
// tuples exceed maxTuples.
func tupleColors(E int64, M, k, maxTuples int) int {
	c := 1
	for c*c < int(E)/M {
		c *= 2
	}
	for c > 1 && math.Pow(float64(c), float64(k)) > float64(maxTuples) {
		c /= 2
	}
	return c
}

// CliqueTables holds one color tuple's subproblem in flat arrays, reused
// from tuple to tuple; the zero value is ready to use. For T loaded edges
// the state is at most 3T words, which is what Solve leases:
//
//	load   T  the tuple's distinct buckets, read range by range
//	nbr    T  v<<32 | ξ(v) for each loaded edge (u,v), in canonical order
//	          (the ranges merged): grouped by cone vertex u, ascending
//	          within a group
//	cones ≤T  u<<32 | the start of u's group in nbr, ascending in u
//
// Colors come from bucket names — an edge of E_{a,b} joins a color-a cone
// to a color-b neighbour — so the solver never hashes. The per-position
// candidate lists (cands) are subsets of one nbr group.
type CliqueTables struct {
	load, nbr, cones []extmem.Word
	cands            [][]extmem.Word
	verts            []uint32
}

// Solve enumerates the properly colored k-cliques of one color tuple,
// k = len(tuple): the cliques v0 < … < v(k-1) with ξ(vi) = tuple[i], over
// the color-pair buckets laid out in edges, bucket (a,b) at
// [off[a·c+b], off[a·c+b+1]). It loads the union of the tuple's C(k,2)
// buckets and extends cliques depth-first in ascending vertex order, so
// the stream is a pure function of the subproblem. It is the one clique
// tuple solver: KCliqueParallel and the cluster shards, which lay out only the
// buckets of their owned color tuples, both call it. A tuple that
// trienum.CliqueRule does not admit has no clique, and it returns nil.
func (t *CliqueTables) Solve(sp *extmem.Space, edges extmem.Extent, off []int64, c int, tuple []int, info *Info, emit EmitK) error {
	k := len(tuple)
	if !trienum.CliqueRule(k).Admits(off, c, tuple) {
		return nil
	}
	// The distinct bucket ranges of the position pairs; the pair (0,1)
	// comes first, so range 0 is E_{τ0,τ1}.
	type rng struct{ lo, hi int64 }
	var ranges []rng
	var colors []extmem.Word // ξ(v) of each range's edges (u,v)
	var total int64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			b := tuple[i]*c + tuple[j]
			r := rng{off[b], off[b+1]}
			if !slices.Contains(ranges, r) {
				ranges = append(ranges, r)
				colors = append(colors, extmem.Word(tuple[j]))
				total += r.hi - r.lo
			}
		}
	}
	info.Subproblems++
	if total > info.MaxSubproblem {
		info.MaxSubproblem = total
	}
	if total >= 1<<32 {
		return fmt.Errorf("subgraph: color tuple of %d edges exceeds the solver's 2^32", total)
	}

	// Load the ranges one after another: reading them interleaved through
	// the cache would thrash, since the lease leaves it about two frames.
	// Expected size O(k²·M); the lease is charged for whatever it is.
	lease := sp.LeaseAtMost(int(total) * 3)
	defer lease.Release()
	t.load = slices.Grow(t.load[:0], int(total))[:total]
	cur, end := make([]int, len(ranges)), make([]int, len(ranges)) // range i is load[cur[i]:end[i]]
	for i, r := range ranges {
		if i > 0 {
			cur[i] = end[i-1]
		}
		end[i] = cur[i] + int(r.hi-r.lo)
		edges.Slice(r.lo, r.hi).Load(t.load[cur[i]:end[i]])
	}

	// Merge the ranges into canonical order and index the cone groups.
	t.nbr, t.cones = t.nbr[:0], t.cones[:0]
	for {
		best := -1
		for i := range ranges {
			if cur[i] < end[i] && (best < 0 || t.load[cur[i]] < t.load[cur[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		e := t.load[cur[best]]
		cur[best]++
		if u := e >> 32; len(t.cones) == 0 || t.cones[len(t.cones)-1]>>32 != u {
			t.cones = append(t.cones, u<<32|extmem.Word(len(t.nbr)))
		}
		t.nbr = append(t.nbr, e<<32|colors[best])
	}

	// Start vertices: the cones of E_{τ0,τ1}, ascending. A color-τ0 cone
	// with no neighbour of color τ1 starts no clique.
	if len(t.cands) < k {
		t.cands = make([][]extmem.Word, k)
	}
	t.verts = slices.Grow(t.verts[:0], k)[:k]
	verts := t.verts
	prev := ^extmem.Word(0)
	for _, e := range t.load[:end[0]] {
		if v := e >> 32; v != prev {
			prev = v
			verts[0] = uint32(v)
			t.extend(1, t.adj(v), tuple, verts, info, emit)
		}
	}
	return nil
}

// extend places position pos of the clique: every candidate of color
// τ_pos, in ascending order, followed by the candidates after it that are
// also its neighbours.
func (t *CliqueTables) extend(pos int, cands []extmem.Word, tuple []int, verts []uint32, info *Info, emit EmitK) {
	want := extmem.Word(tuple[pos])
	for i, e := range cands {
		if e&0xffffffff != want {
			continue
		}
		verts[pos] = uint32(e >> 32)
		if pos == len(tuple)-1 {
			info.Cliques++
			emit(verts)
			continue
		}
		t.cands[pos+1] = intersectSorted(t.cands[pos+1][:0], cands[i+1:], t.adj(e>>32))
		t.extend(pos+1, t.cands[pos+1], tuple, verts, info, emit)
	}
}

// adj returns cone vertex v's group of nbr, empty if v is no cone.
func (t *CliqueTables) adj(v extmem.Word) []extmem.Word {
	// The first cone not below v, by hand: a comparator closure would
	// cost a third of this function, which is half the solver's time.
	i, j := 0, len(t.cones)
	for i < j {
		if m := int(uint(i+j) >> 1); t.cones[m]>>32 < v {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == len(t.cones) || t.cones[i]>>32 != v {
		return nil
	}
	hi := len(t.nbr)
	if i+1 < len(t.cones) {
		hi = int(t.cones[i+1] & 0xffffffff)
	}
	return t.nbr[t.cones[i]&0xffffffff : hi]
}

// intersectSorted appends to dst the words present in both ascending
// lists.
func intersectSorted(dst, a, b []extmem.Word) []extmem.Word {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}
