package repro

import "fmt"

// The public face of the database application that motivates the paper
// (Section 1): a ternary relation in 5th normal form stored as its three
// binary projections is reconstructed by the three-way join
// SB ⋈ BT ⋈ ST, which is exactly triangle enumeration on the union of
// the three bipartite graphs: every triangle is one row of the join.

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
	enc := d.encode()
	g, err := Build(FromEdges(enc.edges), Options{
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
			visit(enc.row(a, b, c))
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
	var dec JoinDecomposition
	sb, bt, st := map[JoinPair]bool{}, map[JoinPair]bool{}, map[JoinPair]bool{}
	add := func(seen map[JoinPair]bool, to *[]JoinPair, p JoinPair) {
		if !seen[p] {
			seen[p] = true
			*to = append(*to, p)
		}
	}
	for _, r := range rows {
		add(sb, &dec.SB, JoinPair{r.Salesperson, r.Brand})
		add(bt, &dec.BT, JoinPair{r.Brand, r.ProductType})
		add(st, &dec.ST, JoinPair{r.Salesperson, r.ProductType})
	}
	return dec
}

// joinEncoding is a decomposition dictionary-encoded onto its tripartite
// triangle graph: the three attribute classes occupy disjoint vertex-id
// ranges (salespeople, then brands, then product types), and each
// projection contributes one bipartite edge set.
type joinEncoding struct {
	edges      [][2]uint32 // the union of the three bipartite graphs
	s, b, t    joinDict    // salespeople, brands, product types
	bOff, tOff uint32      // the first brand and product-type ids
}

// joinDict interns the strings of one attribute class into dense ids.
type joinDict struct {
	ids   map[string]uint32
	names []string
}

func (d *joinDict) intern(s string) {
	if _, ok := d.ids[s]; !ok {
		if d.ids == nil {
			d.ids = map[string]uint32{}
		}
		d.ids[s] = uint32(len(d.names))
		d.names = append(d.names, s)
	}
}

// encode dictionary-encodes the decomposition.
func (d JoinDecomposition) encode() *joinEncoding {
	e := &joinEncoding{}
	for _, p := range d.SB {
		e.s.intern(p.A)
		e.b.intern(p.B)
	}
	for _, p := range d.BT {
		e.b.intern(p.A)
		e.t.intern(p.B)
	}
	for _, p := range d.ST {
		e.s.intern(p.A)
		e.t.intern(p.B)
	}
	e.bOff = uint32(len(e.s.names))
	e.tOff = e.bOff + uint32(len(e.b.names))
	for _, p := range d.SB {
		e.edges = append(e.edges, [2]uint32{e.s.ids[p.A], e.bOff + e.b.ids[p.B]})
	}
	for _, p := range d.BT {
		e.edges = append(e.edges, [2]uint32{e.bOff + e.b.ids[p.A], e.tOff + e.t.ids[p.B]})
	}
	for _, p := range d.ST {
		e.edges = append(e.edges, [2]uint32{e.s.ids[p.A], e.tOff + e.t.ids[p.B]})
	}
	return e
}

// row decodes one triangle (vertex ids of the encoded graph, any order)
// into the join row it represents; the tripartite structure means each
// triangle has exactly one vertex per attribute class.
func (e *joinEncoding) row(a, b, c uint32) JoinRow {
	var r JoinRow
	for _, id := range [3]uint32{a, b, c} {
		switch {
		case id < e.bOff:
			r.Salesperson = e.s.names[id]
		case id < e.tOff:
			r.Brand = e.b.names[id-e.bOff]
		default:
			r.ProductType = e.t.names[id-e.tOff]
		}
	}
	return r
}
