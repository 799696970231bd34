package trienum

import (
	"slices"

	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
	"repro/internal/hashing"
)

// obliviousBaseCutoff stops the recursion once a subproblem has at most
// this many edges. The paper recurses to depth log4(E) regardless of
// subproblem size; cutting off at a constant size is an engineering
// constant-factor change (the base case on O(1) edges costs O(1) I/Os,
// no more than one further recursion step) that removes an enormous number
// of near-empty recursion nodes. Correctness is unaffected: at every
// level each triangle is alive in exactly one subproblem, so emitting it
// at an internal node is as safe as at depth log4(E).
const obliviousBaseCutoff = 24

// oblivious carries the recursion state. work holds the edges; ann holds,
// parallel to work, the packed current-level colors (ξ(u)<<32 | ξ(v)) of
// each edge's endpoints, maintained incrementally so compatibility tests
// do not re-evaluate the whole hash chain. All operations on a segment are
// permutations of it, so a parent's edge multiset survives its children.
//
// Randomness is path-split: each recursion node owns a private Rand,
// drawing its level's Poly4 from it and deriving the eight children's
// Rands with Split(bits). A node's random choices — and hence its entire
// subtree's emission stream — are therefore a pure function of (segment
// edge set, color vector, depth, chain, node Rand), independent of
// whatever its siblings do. That is what lets ObliviousParallel
// (oblivious_parallel.go) hand nodes to workers and reproduce the stream
// of one depth-first recursion exactly.
//
// plan is set only on ObliviousParallel's coordinator run: the recursion
// then emits nothing itself, but hands each node at the split frontier,
// and each local high-degree pass above it, to the pool as a task. A task
// runs with plan nil, to completion: cancellation is the coordinator's
// and RunTuples' job.
type oblivious struct {
	sp       *extmem.Space
	emit     graph.Emit
	info     *Info
	work     extmem.Extent
	ann      extmem.Extent
	scratchE extmem.Extent
	scratchA extmem.Extent
	chain    []hashing.Poly4
	maxDepth int
	plan     *obPlanner
}

// colorOf evaluates the current coloring ξ_i(v) = 2ξ_{i-1}(v) − b_i(v)
// from the chain of per-level bit functions.
func (o *oblivious) colorOf(v uint32, depth int) uint32 {
	xi := uint32(1)
	for i := 0; i < depth; i++ {
		xi = 2*xi - uint32(o.chain[i].Bit(uint64(v)))
	}
	return xi
}

// properEmit returns the filtered emitter for triangles that must satisfy
// the (c0,c1,c2) coloring at the given depth.
func (o *oblivious) properEmit(col [3]uint32, depth int) func(a, b, c uint32) {
	return func(a, b, c uint32) {
		if o.colorOf(a, depth) == col[0] && o.colorOf(b, depth) == col[1] && o.colorOf(c, depth) == col[2] {
			o.emit(a, b, c)
		}
	}
}

// recurse solves the (col[0],col[1],col[2])-enumeration problem on the
// segment [lo,hi) of work: the body of the Section 3 recursion.
func (o *oblivious) recurse(lo, hi int64, col [3]uint32, depth int, rnd *hashing.Rand) {
	n := hi - lo
	if n == 0 {
		return
	}
	if o.plan != nil && o.plan.spawn(o, lo, hi, col, depth, rnd) {
		return // the node is a task now, or the run was cancelled
	}
	o.info.Subproblems++
	for len(o.info.Recursion) <= depth {
		o.info.Recursion = append(o.info.Recursion, RecursionLevel{Level: len(o.info.Recursion)})
	}
	lv := &o.info.Recursion[depth]
	lv.Subproblems++
	lv.TotalEdges += n
	if n > lv.MaxEdges {
		lv.MaxEdges = n
	}
	seg := o.work.Slice(lo, hi)

	if depth >= o.maxDepth || n <= obliviousBaseCutoff {
		o.info.BaseCases++
		// A nil ctx never cancels; the error is always nil.
		_ = DementievSortMerge(nil, o.sp, seg, emsort.FunnelSortRecords, o.properEmit(col, depth))
		return
	}

	// Step 1: local high-degree vertices (degree >= n/8; at most 16).
	n = o.localHighDegree(lo, hi, col, depth)
	if n == 0 {
		return
	}
	seg = o.work.Slice(lo, lo+n)
	annSeg := o.ann.Slice(lo, lo+n)

	// Step 2: refine the coloring with a fresh 4-wise independent bit,
	// ξ'(v) = 2ξ(v) − b(v), updating the per-edge color annotations.
	b := hashing.NewPoly4(rnd)
	o.chain = append(o.chain, b)
	for i := int64(0); i < n; i++ {
		e := seg.Read(i)
		a := annSeg.Read(i)
		xu := 2*uint32(a>>32) - uint32(b.Bit(uint64(graph.U(e))))
		xv := 2*uint32(a) - uint32(b.Bit(uint64(graph.V(e))))
		annSeg.Write(i, extmem.Word(xu)<<32|extmem.Word(xv))
	}

	// Step 3: the eight subproblems ζ ∈ {2c0−1,2c0}×{2c1−1,2c1}×{2c2−1,2c2}.
	// Every child's Rand is split off unconditionally — even for an empty
	// child — so the sequence of draws per node is fixed (4 for the Poly4,
	// then one per Split) and every child's randomness is reproducible from
	// the node's Rand alone.
	for bits := 0; bits < 8; bits++ {
		childRnd := rnd.Split(uint64(bits))
		zeta := [3]uint32{
			2*col[0] - uint32(bits>>0&1),
			2*col[1] - uint32(bits>>1&1),
			2*col[2] - uint32(bits>>2&1),
		}
		k := o.partitionCompatible(lo, lo+n, zeta)
		o.recurse(lo, lo+k, zeta, depth+1, childRnd)
	}

	// Restore the annotations of this segment to this node's level before
	// returning, so the parent's remaining sibling partitions read colors
	// at the level the parent established. ξ' = 2ξ − b is invertible:
	// ξ = (ξ' + b(v)) / 2. (Descendants have already restored their own
	// deeper refinements by the same rule.)
	for i := int64(0); i < n; i++ {
		e := seg.Read(i)
		a := annSeg.Read(i)
		pu := (uint32(a>>32) + uint32(b.Bit(uint64(graph.U(e))))) >> 1
		pv := (uint32(a) + uint32(b.Bit(uint64(graph.V(e))))) >> 1
		annSeg.Write(i, extmem.Word(pu)<<32|extmem.Word(pv))
	}
	o.chain = o.chain[:len(o.chain)-1]
}

// localHighDegree enumerates (via Lemma 1) and removes all triangles with
// a vertex of degree >= n/8 within the segment, returning the new length.
// Removal is a permutation: removed edges are moved past the new length,
// preserving the parent's multiset. On the coordinator's run each pass is
// a task against the node's pre-pass segment instead (obPlanner).
func (o *oblivious) localHighDegree(lo, hi int64, col [3]uint32, depth int) int64 {
	n := hi - lo
	mark := o.sp.Mark()
	ends := o.sp.Alloc(2 * n)
	seg := o.work.Slice(lo, hi)
	for i := int64(0); i < n; i++ {
		e := seg.Read(i)
		ends.Write(2*i, extmem.Word(graph.U(e)))
		ends.Write(2*i+1, extmem.Word(graph.V(e)))
	}
	emsort.FunnelSortRecords(ends, 1, emsort.Identity)
	var high []uint32 // at most 16
	threshold := float64(n) / 8
	for i := int64(0); i < 2*n; {
		v := ends.Read(i)
		j := i
		for j < 2*n && ends.Read(j) == v {
			j++
		}
		if float64(j-i) >= threshold {
			high = append(high, uint32(v))
		}
		i = j
	}
	o.sp.Release(mark)

	var frozen int64 // the pre-pass segment's arena offset
	if o.plan != nil && len(high) > 0 {
		frozen = o.plan.appendArena(seg)
	}
	cur := n
	for j, v := range high {
		if cur == 0 {
			break
		}
		if o.plan != nil {
			o.plan.addHighDegTask(o, frozen, n, v, high[:j], col, depth)
		} else {
			o.highDegreePass(o.work.Slice(lo, lo+cur), v, nil, col, depth)
		}
		cur = o.partitionBy(lo, lo+cur, func(e extmem.Word) bool {
			return graph.U(e) != v && graph.V(e) != v
		})
		o.info.HighDegVertices++
	}
	return cur
}

// highDegreePass is Lemma 1 for the local high-degree vertex v on seg: it
// emits the triangles through v that are proper for col and whose other
// two corners avoid skip.
func (o *oblivious) highDegreePass(seg extmem.Extent, v uint32, skip []uint32, col [3]uint32, depth int) {
	properEmit := o.properEmit(col, depth)
	enumerateContaining(o.sp, seg, v, emsort.FunnelSortRecords, func(u, w uint32) {
		if slices.Contains(skip, u) || slices.Contains(skip, w) {
			return
		}
		t := graph.MakeTriple(v, u, w)
		properEmit(t.V1, t.V2, t.V3)
	})
}

// partitionCompatible permutes [lo,hi) of work (and annotations) so edges
// compatible with the color vector zeta form the prefix; returns its size.
// An edge {u,v}, u<v with colors (x,y) is compatible iff (x,y) is one of
// (ζ0,ζ1), (ζ1,ζ2), (ζ0,ζ2).
func (o *oblivious) partitionCompatible(lo, hi int64, zeta [3]uint32) int64 {
	p01 := extmem.Word(zeta[0])<<32 | extmem.Word(zeta[1])
	p12 := extmem.Word(zeta[1])<<32 | extmem.Word(zeta[2])
	p02 := extmem.Word(zeta[0])<<32 | extmem.Word(zeta[2])
	return o.partitionByAnn(lo, hi, func(a extmem.Word) bool {
		return a == p01 || a == p12 || a == p02
	})
}

// partitionBy permutes [lo,hi) so edges satisfying keep form the prefix,
// moving annotation words in lockstep. Returns the prefix length.
func (o *oblivious) partitionBy(lo, hi int64, keep func(e extmem.Word) bool) int64 {
	return o.partition(lo, hi, func(e, _ extmem.Word) bool { return keep(e) })
}

// partitionByAnn partitions on the annotation word.
func (o *oblivious) partitionByAnn(lo, hi int64, keep func(a extmem.Word) bool) int64 {
	return o.partition(lo, hi, func(_, a extmem.Word) bool { return keep(a) })
}

func (o *oblivious) partition(lo, hi int64, keep func(e, a extmem.Word) bool) int64 {
	n := hi - lo
	seg := o.work.Slice(lo, hi)
	annSeg := o.ann.Slice(lo, hi)
	scrE := o.scratchE.Slice(lo, hi)
	scrA := o.scratchA.Slice(lo, hi)
	front, back := int64(0), n-1
	for i := int64(0); i < n; i++ {
		e, a := seg.Read(i), annSeg.Read(i)
		if keep(e, a) {
			scrE.Write(front, e)
			scrA.Write(front, a)
			front++
		} else {
			scrE.Write(back, e)
			scrA.Write(back, a)
			back--
		}
	}
	scrE.CopyTo(seg)
	scrA.CopyTo(annSeg)
	return front
}
