package trienum

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bias"
	"repro/internal/ctxutil"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// DefaultFamilySize is the number of small-bias candidate colorings the
// deterministic algorithm examines per greedy level.
const DefaultFamilySize = 256

// DeterministicParallel enumerates all triangles of g with the
// derandomized cache-aware algorithm of Section 4 in O(E^1.5/(sqrt(M)·B))
// worst-case I/Os, assuming M >= E^ε.
//
// The coloring ξ: V → [c] (c the power of two at least sqrt(E/M)) is built
// one bit per level: at level i every candidate two-coloring b from an
// almost 4-wise independent small-bias family (package bias) is scored by
// the paper's potential
//
//	4^i·X^nonadj_ξi/c² + 2^i·X^adj_ξi/c,
//
// computed for all candidates in one scan of the edge list plus one scan
// of the endpoint-doubled list, and the minimizing b is kept. Invariant
// (4) — potential ≤ (1+α)^i·E·M with α = 1/log c — is verified at every
// level; since our enumerated family is a truncated prefix of the
// theoretical construction (see ARCHITECTURE.md, section
// "Substitutions"), a violation returns an error instead of silently
// degrading. The final
// coloring satisfies X_ξ < e·E·M, which is what the Theorem 4 analysis
// needs.
//
// The greedy coloring construction is inherently sequential and runs on
// the coordinator (checking exec.Ctx between levels); the high-degree
// passes and the color-triple kernels run on the worker-pool engine as in
// CacheAwareParallel, with the same stream, stats, cancellation and
// decomposition-unit contract.
func DeterministicParallel(sp *extmem.Space, g graph.Canonical, exec Exec, emit graph.Emit) (Info, []extmem.Stats, error) {
	var info Info
	emit = countingEmit(&info, emit)
	E := g.Edges.Len()
	ctx := exec.Ctx
	if err := ctxutil.Err(ctx); err != nil || E == 0 {
		return info, nil, err
	}
	workers := exec.workers()
	mark := sp.Mark()
	defer sp.Release(mark)

	work := sp.Alloc(E)
	g.Edges.CopyTo(work)

	curLen, workerStats, err := highDegreeParallel(exec, sp, work, g, emit, &info)
	if err != nil {
		return info, workerStats, err
	}
	edges := work.Prefix(curLen)

	// The greedy bit selection is inherently sequential, but the
	// endpoint-doubled list it scans is ordered by the parallel sort. A
	// cancellation inside the sort is recorded and surfaces right after
	// the coloring construction unwinds.
	var sortErr error
	sorter := func(ext extmem.Extent, stride int, key emsort.Key) {
		if sortErr != nil {
			return
		}
		ws, err := emsort.ParallelSortRecordsCtx(ctx, ext, stride, key, workers)
		workerStats = extmem.AddStatsVec(workerStats, ws)
		sortErr = err
	}
	colorOf, c, err := buildDeterministicColoring(ctx, sp, g, edges, sorter, &info)
	if sortErr != nil {
		return info, workerStats, sortErr
	}
	if err != nil {
		return info, workerStats, err
	}
	ws, err := solveColoredParallel(exec, sp, edges, colorOf, c, info.HighDegVertices, &info, emit)
	return info, extmem.AddStatsVec(workerStats, ws), err
}

// buildDeterministicColoring runs the greedy derandomization of Section 4
// over the (low-degree) edge extent and returns the resulting coloring
// function and color count, recording the per-level potentials in info.
// It allocates scratch (the endpoint-doubled list) above the caller's
// mark and leaves it for the caller's release. sorter orders the
// endpoint-doubled list (the engine passes the parallel emsort adapter;
// the sort key is injective, so every sorter produces the same bytes and
// the chosen coloring is sorter-independent). The returned function is
// pure and safe for concurrent use; the engine hands it to worker shards
// unchanged. ctx (which may be nil) is checked between greedy levels so a
// cancelled run stops without scanning the remaining levels; cancellation
// inside the sorter itself is the caller's to detect (the engine records
// it and checks after this function unwinds).
func buildDeterministicColoring(ctx context.Context, sp *extmem.Space, g graph.Canonical, edges extmem.Extent, sorter graph.SortFunc, info *Info) (func(uint32) uint32, int, error) {
	E := g.Edges.Len()
	cfg := sp.Config()
	curLen := edges.Len()

	// Number of colors: the next power of two >= sqrt(E/M).
	c := 1
	for c < ceilSqrt(float64(E)/float64(cfg.M)) {
		c *= 2
	}
	info.Colors = c
	if c == 1 {
		return func(uint32) uint32 { return 0 }, 1, nil
	}
	logc := 0
	for 1<<logc < c {
		logc++
	}
	alpha := 1.0 / float64(logc)
	budget := float64(E) * float64(cfg.M)

	fam := bias.NewFamily(g.NumVertices, DefaultFamilySize)

	// The endpoint-doubled list (v<<32 | other), sorted by v, built once:
	// it drives the per-vertex adjacent-pair counting at every level.
	doubled := sp.Alloc(2 * curLen)
	for i := int64(0); i < curLen; i++ {
		e := edges.Read(i)
		u, v := graph.U(e), graph.V(e)
		doubled.Write(2*i, extmem.Word(u)<<32|extmem.Word(v))
		doubled.Write(2*i+1, extmem.Word(v)<<32|extmem.Word(u))
	}
	sorter(doubled, 1, emsort.Identity)

	// Greedy bit selection. The per-candidate counter tables below are
	// derandomization bookkeeping that Theorem 2 assumes fits in internal
	// memory (M >= E^ε and "a constant number of variables for each
	// function"); they are not leased against the simulated M, which in
	// our experiments is deliberately tiny.
	var chosen []uint64
	prefixColor := func(v uint32) uint32 {
		var x uint32
		cw := fam.CodeWord(v)
		for _, s := range chosen {
			x = x<<1 | uint32(bias.EvalSeed(s, cw))
		}
		return x
	}
	t := fam.Size()
	for i := 1; i <= logc; i++ {
		if err := ctxutil.Err(ctx); err != nil {
			return nil, c, err
		}
		ci := 1 << i
		xTotal := make([]float64, t)
		xAdj := make([]float64, t)
		cnt := make([][]uint32, t)
		for j := range cnt {
			cnt[j] = make([]uint32, ci*ci)
		}
		// Pass 1: same-class pair counts (all pairs), incrementally:
		// inserting into a class with n members adds n pairs.
		for k := int64(0); k < curLen; k++ {
			e := edges.Read(k)
			u, v := graph.U(e), graph.V(e)
			pu, pv := prefixColor(u), prefixColor(v)
			base := (int(pu)<<1)*ci + int(pv)<<1
			cu, cv := fam.CodeWord(u), fam.CodeWord(v)
			for j := 0; j < t; j++ {
				s := fam.Seed(j)
				idx := base + int(bias.EvalSeed(s, cu))*ci + int(bias.EvalSeed(s, cv))
				xTotal[j] += float64(cnt[j][idx])
				cnt[j][idx]++
			}
		}
		// Pass 2: adjacent same-class pairs, per shared vertex.
		for j := range cnt {
			clear(cnt[j])
		}
		var touched [][]int32
		touched = make([][]int32, t)
		var runStart int64
		for runStart < 2*curLen {
			v := uint32(doubled.Read(runStart) >> 32)
			runEnd := runStart
			for runEnd < 2*curLen && uint32(doubled.Read(runEnd)>>32) == v {
				runEnd++
			}
			pv := prefixColor(v)
			cv := fam.CodeWord(v)
			for k := runStart; k < runEnd; k++ {
				other := uint32(doubled.Read(k))
				po := prefixColor(other)
				co := fam.CodeWord(other)
				// Class of edge {v, other} orders endpoints by rank.
				for j := 0; j < t; j++ {
					s := fam.Seed(j)
					xv := int(pv)<<1 | int(bias.EvalSeed(s, cv))
					xo := int(po)<<1 | int(bias.EvalSeed(s, co))
					var idx int
					if v < other {
						idx = xv*ci + xo
					} else {
						idx = xo*ci + xv
					}
					xAdj[j] += float64(cnt[j][idx])
					cnt[j][idx]++
					touched[j] = append(touched[j], int32(idx))
				}
			}
			for j := 0; j < t; j++ {
				for _, idx := range touched[j] {
					cnt[j][idx] = 0
				}
				touched[j] = touched[j][:0]
			}
			runStart = runEnd
		}
		// Score candidates by the paper's potential and pick the best.
		pow4i := math.Pow(4, float64(i))
		pow2i := math.Pow(2, float64(i))
		cf := float64(c)
		best, bestPot := -1, math.Inf(1)
		for j := 0; j < t; j++ {
			nonadj := xTotal[j] - xAdj[j]
			pot := pow4i*nonadj/(cf*cf) + pow2i*xAdj[j]/cf
			if pot < bestPot {
				best, bestPot = j, pot
			}
		}
		levelBudget := math.Pow(1+alpha, float64(i)) * budget
		info.Levels = append(info.Levels, LevelInfo{Candidate: best, Potential: bestPot, Budget: levelBudget})
		if bestPot > levelBudget {
			return nil, c, fmt.Errorf("trienum: derandomization invariant (4) violated at level %d: potential %.0f > budget %.0f (family size %d too small)", i, bestPot, levelBudget, t)
		}
		chosen = append(chosen, fam.Seed(best))
	}

	return prefixColor, c, nil
}
