package trienum

import (
	"context"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// kernel implements Lemma 2 (Hu, Tao and Chung, SIGMOD 2013, step 2 of
// Algorithm 1): enumerate every triangle {v, u, w} with v < u < w whose
// pivot edge {u, w} lies in pivots and whose cone edges {v, u}, {v, w} lie
// in edges. I/O complexity O(E/B + E'·E/(M·B)) where E' = |pivots|.
//
// edges must be sorted canonically (so each cone vertex's forward
// adjacency list is consecutive). pivots need not be sorted. Every uint32
// is a valid vertex id, 2^32-1 included (see reservedVertex): the cluster
// shards run the kernel over original ids, not ranks. memEdges caps how
// many pivot edges are loaded per iteration; pass 0 to size it
// automatically from the Space's configured memory.
// The color-coded algorithms keep each triangle in exactly one subproblem
// through the edges they pass (see SolveTriple).
//
// ctx (which may be nil) is checked between pivot chunks — each chunk is
// one full scan of the edge set, the algorithm's natural pass boundary —
// and a cancelled run returns ctx.Err(). The kernel touches no state
// outside sp, so concurrent invocations on distinct Spaces (the worker
// shards of parallel.go) are safe; emit must then be confined.
func kernel(ctx context.Context, sp *extmem.Space, edges, pivots extmem.Extent, memEdges int, emit graph.Emit) error {
	nPivots := pivots.Len()
	if nPivots == 0 || edges.Len() == 0 {
		return ctxutil.Err(ctx)
	}
	if memEdges <= 0 {
		// The constant α of the paper: pivot chunks of αM edges. The
		// native chunk state (chunkTables) costs six words per pivot
		// edge, leased below.
		memEdges = (sp.Config().M - sp.Leased()) / 8
		if memEdges < 16 {
			memEdges = 16
		}
	}

	for lo := int64(0); lo < nPivots; lo += int64(memEdges) {
		if err := ctxutil.Err(ctx); err != nil {
			return err
		}
		hi := lo + int64(memEdges)
		if hi > nPivots {
			hi = nPivots
		}
		kernelChunk(sp, edges, pivots.Slice(lo, hi), emit)
	}
	return nil
}

// kernelChunk processes one memory-resident chunk of pivot edges against a
// full scan of the edge set.
func kernelChunk(sp *extmem.Space, edges, chunk extmem.Extent, emit graph.Emit) {
	release := sp.LeaseAtMost(int(chunk.Len()) * 6)
	defer release()

	// Load the chunk: the pivot set and Γ_mem, the vertices it touches.
	c := newChunkTables(chunk)

	// Scan the edge set grouped by cone vertex v; for each group compute
	// Γ_v = {u : (v,u) ∈ edges, u ∈ Γ_mem} and enumerate pivot edges with
	// both endpoints in Γ_v.
	n := edges.Len()
	for i := int64(0); i < n; i++ {
		e := edges.Read(i)
		v, u := graph.U(e), graph.V(e)
		if c.epoch == 0 || v != c.curV {
			c.flush(emit)
			c.startCone(v)
		}
		if s := c.gammaFind(u); s >= 0 {
			c.lv = append(c.lv, uint32(s))
			c.mark[s] = c.epoch
		}
	}
	c.flush(emit)
}

// reservedVertex is the one vertex id the hashed Γ slots cannot hold: they
// store a vertex u as u+1 so that a zero slot is free. It gets the slot
// past the hashed ones instead, whose gamma entry stays 0, so the u+1
// decoding (0-1 wraps to 2^32-1) names it like any other slot.
const reservedVertex = ^uint32(0)

// chunkTables is the internal-memory state of one pivot chunk: flat
// open-addressing tables, built once per chunk and probed linearly from a
// multiply-shift home slot. A Γ slot names its vertex for the whole chunk
// (nothing is deleted), so the other tables refer to vertices by slot. For
// a chunk of P pivot edges, hence at most 2P vertices in Γ_mem, the state
// in 64-bit words is
//
//	pivots  P     the chunk, rewritten in place as (Γ slot, Γ slot) pairs
//	pset    P     2P uint32: the pivot set, 1 + index into pivots (load ≤ 1/2)
//	gamma   1.5P  3P uint32: Γ_mem, vertex + 1 per slot (load ≤ 2/3)
//	mark    1.5P  3P uint32: per Γ slot, the epoch of the last cone vertex
//	              v with that vertex in Γ_v
//	lv      ≤ P   Γ_v as Γ slots, at most 2P uint32
//
// six words per pivot edge in all, which is what the kernel leases; gamma
// and mark carry one more uint32 each, the slot of reservedVertex. Each
// cone vertex gets a fresh epoch, so Γ_v's membership set (mark) empties
// without a clear.
type chunkTables struct {
	pivots []extmem.Word
	pset   []uint32
	gamma  []uint32 // the 3P hashed slots, then reservedVertex's slot
	mark   []uint32
	lv     []uint32 // Γ_v in ascending vertex order (edges are sorted)
	curV   uint32
	epoch  uint32 // mark stamp of curV's group; 0 before the first group
	top    int    // reservedVertex's slot, or -1 while it is not in Γ_mem
}

func newChunkTables(chunk extmem.Extent) *chunkTables {
	p := int(chunk.Len())
	c := &chunkTables{
		pivots: make([]extmem.Word, p),
		pset:   make([]uint32, 2*p),
		gamma:  make([]uint32, 3*p+1),
		mark:   make([]uint32, 3*p+1),
		lv:     make([]uint32, 0, 2*p),
		top:    -1,
	}
	chunk.Load(c.pivots)
	for i, e := range c.pivots {
		su, sw := c.gammaInsert(graph.U(e)), c.gammaInsert(graph.V(e))
		c.pivots[i] = uint64(su)<<32 | uint64(sw)
		c.psetInsert(i)
	}
	return c
}

// homeSlot is key's first probe in a table of n slots: a multiplicative
// (Fibonacci) hash reduced to [0, n) by multiply-shift, so tables are sized
// exactly rather than rounded up to a power of two.
func homeSlot(key uint64, n int) int {
	return int((key * 0x9E3779B97F4A7C15 >> 32) * uint64(n) >> 32)
}

// gammaInsert returns u's Γ slot, adding u if absent.
func (c *chunkTables) gammaInsert(u uint32) int {
	n := len(c.gamma) - 1
	if u == reservedVertex {
		c.top = n
		return n
	}
	for i := homeSlot(uint64(u), n); ; {
		if k := c.gamma[i]; k == 0 || k == u+1 {
			c.gamma[i] = u + 1
			return i
		}
		if i++; i == n {
			i = 0
		}
	}
}

// gammaFind returns u's Γ slot, or -1 if u is not in Γ_mem. The free-slot
// case comes first, so reservedVertex (u+1 == 0) probes to a free slot
// like any absent vertex and only then is looked up in its own slot.
func (c *chunkTables) gammaFind(u uint32) int {
	n := len(c.gamma) - 1
	for i := homeSlot(uint64(u), n); ; {
		switch c.gamma[i] {
		case 0:
			if u == reservedVertex {
				return c.top
			}
			return -1
		case u + 1:
			return i
		}
		if i++; i == n {
			i = 0
		}
	}
}

// psetInsert adds pivots[idx] to the pivot set; a duplicate pivot is held
// once.
func (c *chunkTables) psetInsert(idx int) {
	key := c.pivots[idx]
	n := len(c.pset)
	for i := homeSlot(key, n); ; {
		j := c.pset[i]
		if j == 0 {
			c.pset[i] = uint32(idx) + 1
			return
		}
		if c.pivots[j-1] == key {
			return
		}
		if i++; i == n {
			i = 0
		}
	}
}

// isPivot reports whether the Γ-slot pair key is a pivot of the chunk.
func (c *chunkTables) isPivot(key uint64) bool {
	n := len(c.pset)
	for i := homeSlot(key, n); ; {
		j := c.pset[i]
		if j == 0 {
			return false
		}
		if c.pivots[j-1] == key {
			return true
		}
		if i++; i == n {
			i = 0
		}
	}
}

// startCone opens the group of cone vertex v with an empty Γ_v.
func (c *chunkTables) startCone(v uint32) {
	c.curV = v
	c.lv = c.lv[:0]
	if c.epoch++; c.epoch == 0 { // 2^32 groups in one scan: restamp
		clear(c.mark)
		c.epoch = 1
	}
}

// flush enumerates the pivot edges with both endpoints in Γ_v, choosing the
// cheaper of the two enumeration orders: all pairs of Γ_v (|Γ_v|² work) or
// all chunk pivots (|chunk| work).
func (c *chunkTables) flush(emit graph.Emit) {
	lv, v := c.lv, c.curV
	if len(lv) < 2 {
		return
	}
	if int64(len(lv))*int64(len(lv)) <= int64(len(c.pivots)) {
		for i := 0; i < len(lv); i++ {
			for j := i + 1; j < len(lv); j++ {
				if c.isPivot(uint64(lv[i])<<32 | uint64(lv[j])) {
					emit(v, c.gamma[lv[i]]-1, c.gamma[lv[j]]-1)
				}
			}
		}
		return
	}
	for _, p := range c.pivots {
		su, sw := uint32(p>>32), uint32(p)
		if c.mark[su] != c.epoch || c.mark[sw] != c.epoch {
			continue
		}
		emit(v, c.gamma[su]-1, c.gamma[sw]-1)
	}
}
