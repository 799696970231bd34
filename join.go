package repro

import (
	"fmt"

	"repro/internal/join"
)

// The public face of the database application that motivates the paper
// (Section 1): a ternary relation in 5th normal form stored as its three
// binary projections is reconstructed by the three-way join
// SB ⋈ BT ⋈ ST, which is exactly triangle enumeration on the union of
// the three bipartite graphs.

// JoinPair is one tuple of a binary relation.
type JoinPair struct{ A, B string }

// JoinRow is one tuple of the reconstructed ternary relation.
type JoinRow struct{ Salesperson, Brand, ProductType string }

// JoinDecomposition holds the three binary projections of a 5NF-
// decomposed ternary relation Sells(salesperson, brand, productType).
type JoinDecomposition struct {
	SB []JoinPair // (salesperson, brand)
	BT []JoinPair // (brand, productType)
	ST []JoinPair // (salesperson, productType)
}

// JoinOptions configures JoinDecomposition.Join.
type JoinOptions struct {
	// Algorithm selects the triangle-enumeration algorithm driving the
	// join: CacheAware (default), CacheOblivious, Deterministic, or
	// HuTaoChung. The baselines are not offered here; they exist to be
	// measured against, not to serve queries.
	Algorithm Algorithm
	// MemoryWords and BlockWords describe the simulated machine; zero
	// values default to 1<<16 and 1<<7.
	MemoryWords int
	BlockWords  int
	// Seed drives the randomized algorithms.
	Seed uint64
	// Workers is the worker count (0 = one per CPU) of the join's
	// canonicalization and, for the paper's algorithms, of its
	// enumeration; the reconstructed rows and aggregated I/O statistics
	// are identical at every value.
	Workers int
	// Native runs the join's triangle enumeration natively on the
	// canonical image (its query's Mode is ModeNative): same reconstructed
	// rows, zero I/O statistics.
	Native bool
}

// JoinStats reports the I/O work of a join.
type JoinStats struct {
	Rows        uint64
	IOs         uint64
	BlockReads  uint64
	BlockWrites uint64
}

// Join computes SB ⋈ BT ⋈ ST, calling visit once per reconstructed row
// (in no particular order), and returns I/O statistics of the underlying
// triangle enumeration. The join runs as a query session of a Graph
// handle built from the encoded tripartite graph — the same machinery
// that serves Triangles — so repeated joins of different decompositions
// (or the same one) may run concurrently from different goroutines.
func (d JoinDecomposition) Join(opt JoinOptions, visit func(JoinRow)) (JoinStats, error) {
	switch opt.Algorithm {
	case CacheAware, CacheOblivious, Deterministic, HuTaoChung:
	default:
		return JoinStats{}, fmt.Errorf("repro: join does not support algorithm %v", opt.Algorithm)
	}
	dec := join.Decomposition{SB: toJoinPairs(d.SB), BT: toJoinPairs(d.BT), ST: toJoinPairs(d.ST)}
	enc := dec.Encode()
	g, err := Build(FromEdges(enc.Edges), Options{
		MemoryWords: opt.MemoryWords,
		BlockWords:  opt.BlockWords,
		Workers:     opt.Workers,
	})
	if err != nil {
		return JoinStats{}, err
	}
	defer g.Close()
	q := Query{Algorithm: opt.Algorithm, Seed: opt.Seed, Workers: opt.Workers}
	if opt.Native {
		q.Mode = ModeNative
	}
	res, err := g.TrianglesFunc(nil, q, func(a, b, c uint32) {
		if visit != nil {
			r := enc.Row(a, b, c)
			visit(JoinRow{Salesperson: r.Salesperson, Brand: r.Brand, ProductType: r.ProductType})
		}
	})
	if err != nil {
		return JoinStats{}, err
	}
	return JoinStats{
		Rows:        res.Matches,
		IOs:         res.Stats.IOs(),
		BlockReads:  res.Stats.BlockReads,
		BlockWrites: res.Stats.BlockWrites,
	}, nil
}

// DecomposeJoinRows projects a ternary relation onto its three binary
// projections, deduplicating pairs. If the relation is in 5th normal
// form, Join(DecomposeJoinRows(R)) reconstructs R exactly.
func DecomposeJoinRows(rows []JoinRow) JoinDecomposition {
	in := make([]join.Row, len(rows))
	for i, r := range rows {
		in[i] = join.Row{Salesperson: r.Salesperson, Brand: r.Brand, ProductType: r.ProductType}
	}
	dec := join.Decompose(in)
	return JoinDecomposition{SB: fromJoinPairs(dec.SB), BT: fromJoinPairs(dec.BT), ST: fromJoinPairs(dec.ST)}
}

func toJoinPairs(ps []JoinPair) []join.Pair {
	out := make([]join.Pair, len(ps))
	for i, p := range ps {
		out[i] = join.Pair{A: p.A, B: p.B}
	}
	return out
}

func fromJoinPairs(ps []join.Pair) []JoinPair {
	out := make([]JoinPair, len(ps))
	for i, p := range ps {
		out[i] = JoinPair{A: p.A, B: p.B}
	}
	return out
}
