// Package join implements the database application that motivates the
// paper (Section 1): reconstructing a ternary relation in 5th normal form
// from its three binary projections. The relation
// Sells(salesperson, brand, productType) decomposes into
// SB(salesperson, brand), BT(brand, productType) and
// ST(salesperson, productType); computing SB ⋈ BT ⋈ ST is exactly triangle
// enumeration on the union of the three bipartite graphs, with every
// triangle corresponding to one row of the join. This package encodes and
// decodes; repro.JoinDecomposition.Join runs the enumeration.
package join

// Pair is one tuple of a binary relation.
type Pair struct{ A, B string }

// Row is one tuple of the reconstructed ternary relation.
type Row struct{ Salesperson, Brand, ProductType string }

// Decomposition holds the three binary projections of a 5NF-decomposed
// ternary relation.
type Decomposition struct {
	SB []Pair // (salesperson, brand)
	BT []Pair // (brand, productType)
	ST []Pair // (salesperson, productType)
}

// dictionary interns strings of one attribute class into dense ids.
type dictionary struct {
	ids   map[string]uint32
	names []string
}

func newDictionary() *dictionary { return &dictionary{ids: map[string]uint32{}} }

func (d *dictionary) intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.names))
	d.ids[s] = id
	d.names = append(d.names, s)
	return id
}

// Encoded is a Decomposition dictionary-encoded onto its tripartite
// triangle graph: the three attribute classes occupy disjoint vertex-id
// ranges (salespeople, then brands, then product types), each projection
// contributes one bipartite edge set, and every triangle of the union is
// one row of SB ⋈ BT ⋈ ST. It is the bridge by which a triangle
// enumerator — a query session of the public Graph handle, in
// repro.JoinDecomposition.Join — serves the join: enumerate Edges, hand
// each triangle's vertex ids (in any order) to Row.
type Encoded struct {
	// Edges is the union of the three bipartite graphs.
	Edges      [][2]uint32
	sd, bd, td *dictionary
	bOff, tOff uint32
}

// Encode dictionary-encodes the decomposition.
func (dec Decomposition) Encode() *Encoded {
	e := &Encoded{sd: newDictionary(), bd: newDictionary(), td: newDictionary()}
	for _, p := range dec.SB {
		e.sd.intern(p.A)
		e.bd.intern(p.B)
	}
	for _, p := range dec.BT {
		e.bd.intern(p.A)
		e.td.intern(p.B)
	}
	for _, p := range dec.ST {
		e.sd.intern(p.A)
		e.td.intern(p.B)
	}
	e.bOff = uint32(len(e.sd.names))
	e.tOff = e.bOff + uint32(len(e.bd.names))
	for _, p := range dec.SB {
		e.Edges = append(e.Edges, [2]uint32{e.sd.ids[p.A], e.bOff + e.bd.ids[p.B]})
	}
	for _, p := range dec.BT {
		e.Edges = append(e.Edges, [2]uint32{e.bOff + e.bd.ids[p.A], e.tOff + e.td.ids[p.B]})
	}
	for _, p := range dec.ST {
		e.Edges = append(e.Edges, [2]uint32{e.sd.ids[p.A], e.tOff + e.td.ids[p.B]})
	}
	return e
}

// Row decodes one triangle (vertex ids of the encoded graph, any order)
// into the join row it represents; the tripartite structure means each
// triangle has exactly one vertex per attribute class.
func (e *Encoded) Row(a, b, c uint32) Row {
	var r Row
	for _, id := range [3]uint32{a, b, c} {
		switch {
		case id < e.bOff:
			r.Salesperson = e.sd.names[id]
		case id < e.tOff:
			r.Brand = e.bd.names[id-e.bOff]
		default:
			r.ProductType = e.td.names[id-e.tOff]
		}
	}
	return r
}

// Decompose projects a ternary relation onto its three binary
// projections, deduplicating pairs. If the relation is in 5th normal
// form, joining Decompose(R) reconstructs R exactly.
func Decompose(rows []Row) Decomposition {
	var dec Decomposition
	sb := map[Pair]bool{}
	bt := map[Pair]bool{}
	st := map[Pair]bool{}
	for _, r := range rows {
		p1 := Pair{r.Salesperson, r.Brand}
		p2 := Pair{r.Brand, r.ProductType}
		p3 := Pair{r.Salesperson, r.ProductType}
		if !sb[p1] {
			sb[p1] = true
			dec.SB = append(dec.SB, p1)
		}
		if !bt[p2] {
			bt[p2] = true
			dec.BT = append(dec.BT, p2)
		}
		if !st[p3] {
			st[p3] = true
			dec.ST = append(dec.ST, p3)
		}
	}
	return dec
}
