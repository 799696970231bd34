package trienum

import (
	"context"
	"fmt"

	"repro/internal/ctxutil"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// kernel implements Lemma 2 (Hu, Tao and Chung, SIGMOD 2013, step 2 of
// Algorithm 1): enumerate every triangle {v, u, w} with v < u < w whose
// pivot edge {u, w} lies in pivots and whose cone edges {v, u}, {v, w} lie
// in edges. I/O complexity O(E/B + E'·E/(M·B)) where E' = |pivots|.
//
// edges must be sorted canonically, so each cone vertex's forward
// adjacency list is consecutive, and pivots must be strictly increasing,
// the canonical order of an edge set, so the pivots that share a first
// endpoint are consecutive; a pivot that is not above its predecessor in
// its chunk panics. Every uint32 is a valid vertex id, 2^32-1 included
// (see reservedVertex): the cluster shards run the kernel over original
// ids, not ranks. memEdges caps how many pivot edges are loaded per
// iteration; pass 0 to size it automatically from the Space's configured
// memory (see chunkEdges).
//
// Each chunk is one scan of edges. For each cone vertex v, in edge order,
// it walks the pivots (u, w) of each u in Γ_v, by ascending u and then w,
// and emits those whose w is in Γ_v too, so v's triangles come out in
// ascending (u, w) order (see chunkTables). The color-coded algorithms
// keep each triangle in exactly one subproblem through the edges they
// pass (see SolveTriple).
//
// ctx (which may be nil) is checked between pivot chunks — each chunk is
// one full scan of the edge set, the algorithm's natural pass boundary —
// and a cancelled run returns ctx.Err(). The kernel touches no state
// outside sp, so concurrent invocations on distinct Spaces (the worker
// shards of parallel.go) are safe; emit must then be confined. emit must
// not call into sp: the scan holds its view of the current block of
// edges (Extent.View) across emit.
func kernel(ctx context.Context, sp *extmem.Space, edges, pivots extmem.Extent, memEdges int, emit graph.Emit) error {
	nPivots := pivots.Len()
	if nPivots == 0 || edges.Len() == 0 {
		return ctxutil.Err(ctx)
	}
	memEdges = chunkEdges(sp, memEdges)
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

// chunkEdges returns how many pivot edges the kernel loads per chunk
// when asked for memEdges (0 = automatic): the constant α of the paper,
// pivot chunks of αM edges, whose native state (chunkTables) costs six
// words per pivot edge, leased by kernelChunk. A chunk stays small enough
// for its Γ slot numbers to leave runEnd free.
func chunkEdges(sp *extmem.Space, memEdges int) int {
	if memEdges <= 0 {
		memEdges = max((sp.Config().M-sp.Leased())/8, 16)
	}
	return min(memEdges, (runEnd-1)/3)
}

// kernelChunk processes one memory-resident chunk of pivot edges against a
// full scan of the edge set.
func kernelChunk(sp *extmem.Space, edges, chunk extmem.Extent, emit graph.Emit) {
	lease := sp.LeaseAtMost(int(chunk.Len()) * 6)
	defer lease.Release()

	// Load the chunk: Γ_mem, the vertices it touches, and its pivot runs.
	c := newChunkTables(chunk)

	// Scan the edge set grouped by cone vertex v; for each group compute
	// Γ_v = {u : (v,u) ∈ edges, u ∈ Γ_mem} and enumerate pivot edges with
	// both endpoints in Γ_v.
	n := edges.Len()
	for i := int64(0); i < n; {
		view := edges.View(i)
		for _, e := range view {
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
		i += int64(len(view))
	}
	c.flush(emit)
}

// reservedVertex is the one vertex id the hashed Γ slots cannot hold: they
// store a vertex u as u+1 so that a zero slot is free. It gets the slot
// past the hashed ones instead, whose gamma entry stays 0, so the u+1
// decoding (0-1 wraps to 2^32-1) names it like any other slot.
const reservedVertex = ^uint32(0)

// runEnd marks the last pivot of a run in chunkTables.second, unless the
// end of second closes the run.
const runEnd = 1 << 31

// chunkTables is the internal-memory state of one pivot chunk. Γ_mem is a
// flat open-addressing table, built once per chunk and probed linearly
// from a multiply-shift home slot. A Γ slot names its vertex for the whole
// chunk (nothing is deleted), so the other tables refer to vertices by
// slot. The pivots are kept as runs: the pivots that share a first
// endpoint u are consecutive in the chunk, so second lists their second
// endpoints in chunk order, runEnd closing each run but the last, and
// u's slot in run says where u's run starts. For a chunk of P pivot
// edges, hence at most 2P vertices in Γ_mem, the state in uint32s is
//
//	gamma   3P+1  Γ_mem, vertex + 1 per slot (load ≤ 2/3)
//	mark    3P+1  per Γ slot, the epoch of the last cone vertex v with
//	              that vertex in Γ_v
//	run     3P+1  per Γ slot, 1 + the index in second where its run
//	              starts, or 0 if it is no pivot's first endpoint
//	second  P     the pivots' second endpoints as Γ slots, in runs
//	lv      ≤ 2P  Γ_v as Γ slots
//
// in one backing array: the six words per pivot edge that the kernel
// leases, plus one uint32 in each of gamma, mark and run for the slot of
// reservedVertex. Each cone vertex gets a fresh epoch, so Γ_v's membership
// set (mark) empties without a clear.
type chunkTables struct {
	gamma  []uint32 // the 3P hashed slots, then reservedVertex's slot
	mark   []uint32
	run    []uint32
	second []uint32
	lv     []uint32 // Γ_v in ascending vertex order (edges are sorted)
	curV   uint32
	epoch  uint32 // mark stamp of curV's group; 0 before the first group
	top    int    // reservedVertex's slot, or -1 while it is not in Γ_mem
}

// newChunkTables loads chunk, whose pivots must be strictly increasing,
// into fresh tables sized for it.
func newChunkTables(chunk extmem.Extent) chunkTables {
	p := int(chunk.Len())
	buf := make([]uint32, 12*p+3)
	take := func(n int) []uint32 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	c := chunkTables{
		gamma:  take(3*p + 1),
		mark:   take(3*p + 1),
		run:    take(3*p + 1),
		second: take(p),
		lv:     take(2 * p)[:0],
		top:    -1,
	}
	var prev extmem.Word
	for i := 0; i < p; {
		for _, e := range chunk.View(int64(i)) {
			if i > 0 && e <= prev {
				panic(fmt.Sprintf("trienum: kernel pivot %d-%d is not above its predecessor %d-%d",
					graph.U(e), graph.V(e), graph.U(prev), graph.V(prev)))
			}
			if i == 0 || graph.U(e) != graph.U(prev) {
				if i > 0 {
					c.second[i-1] |= runEnd
				}
				c.run[c.gammaInsert(graph.U(e))] = uint32(i) + 1
			}
			c.second[i] = uint32(c.gammaInsert(graph.V(e)))
			prev = e
			i++
		}
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

// startCone opens the group of cone vertex v with an empty Γ_v.
func (c *chunkTables) startCone(v uint32) {
	c.curV = v
	c.lv = c.lv[:0]
	if c.epoch++; c.epoch == 0 { // 2^32 groups in one scan: restamp
		clear(c.mark)
		c.epoch = 1
	}
}

// flush enumerates the pivot edges with both endpoints in Γ_v: for each u
// in Γ_v, in ascending order, it walks u's run and emits (v, u, w) for
// each w there in Γ_v, in ascending order.
func (c *chunkTables) flush(emit graph.Emit) {
	if len(c.lv) < 2 {
		return
	}
	for _, su := range c.lv {
		j := c.run[su]
		if j == 0 {
			continue
		}
		u := c.gamma[su] - 1
		for _, sw := range c.second[j-1:] {
			if w := sw &^ runEnd; c.mark[w] == c.epoch {
				emit(c.curV, u, c.gamma[w]-1)
			}
			if sw&runEnd != 0 {
				break
			}
		}
	}
}
