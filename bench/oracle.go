package main

import (
	"fmt"
	"sort"
)

// The output oracles. Every result the benchmark receives is reduced to
// a count plus an order-independent set hash (the sum of a strong hash of
// each tuple), and ordered streams additionally to an order-dependent
// sequence hash. The references come from the small in-memory
// enumerators below, which share no code with the library.

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// tupleSet is the order-independent digest of a set of tuples whose
// members are listed ascending.
type tupleSet struct {
	n   uint64
	sum uint64
}

func (s *tupleSet) add(vs ...uint32) {
	h := uint64(len(vs))
	for _, v := range vs {
		h = mix64(h ^ uint64(v) ^ 0x9e3779b97f4a7c15)
	}
	s.n++
	s.sum += h
}

func (s tupleSet) String() string { return fmt.Sprintf("%d tuples, hash %016x", s.n, s.sum) }

// seqHash is an FNV-1a digest of a stream, order-dependent. Tuples are
// hashed word by word; wire streams are hashed as raw bytes.
type seqHash uint64

const fnvOffset seqHash = 14695981039346656037

func (h *seqHash) words(vs ...uint32) {
	for _, v := range vs {
		for i := 0; i < 4; i++ {
			*h = (*h ^ seqHash(byte(v>>(8*i)))) * 1099511628211
		}
	}
}

func (h *seqHash) bytes(b []byte) {
	for _, c := range b {
		*h = (*h ^ seqHash(c)) * 1099511628211
	}
}

// refGraph is a simple adjacency structure for the reference
// enumerators: out[u] lists the neighbours of u that come after it in
// the (degree, id) order, so each triangle or clique is found exactly
// once from its first member.
type refGraph struct {
	out [][]uint32
}

func newRefGraph(edges [][2]uint32) *refGraph {
	seen := make(map[uint64]struct{}, len(edges))
	var n uint32
	var es [][2]uint32
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := uint64(u)<<32 | uint64(v)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		es = append(es, [2]uint32{u, v})
		if v+1 > n {
			n = v + 1
		}
	}
	deg := make([]int, n)
	for _, e := range es {
		deg[e[0]]++
		deg[e[1]]++
	}
	before := func(a, b uint32) bool {
		if deg[a] != deg[b] {
			return deg[a] < deg[b]
		}
		return a < b
	}
	g := &refGraph{out: make([][]uint32, n)}
	for _, e := range es {
		u, v := e[0], e[1]
		if before(v, u) {
			u, v = v, u
		}
		g.out[u] = append(g.out[u], v)
	}
	return g
}

func sort3(a, b, c uint32) (uint32, uint32, uint32) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}

// refTriangles lists every triangle of edges, members ascending, sorted
// lexicographically — the canonical order of an ordered stream.
func refTriangles(edges [][2]uint32) [][3]uint32 {
	g := newRefGraph(edges)
	mark := make([]int32, len(g.out))
	for i := range mark {
		mark[i] = -1
	}
	var out [][3]uint32
	for u := range g.out {
		for _, v := range g.out[u] {
			mark[v] = int32(u)
		}
		for _, v := range g.out[u] {
			for _, w := range g.out[v] {
				if mark[w] == int32(u) {
					a, b, c := sort3(uint32(u), v, w)
					out = append(out, [3]uint32{a, b, c})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}

// triangleRef is the digest of a reference triangle list.
type triangleRef struct {
	set tupleSet
	seq seqHash // of the lexicographically sorted list
}

func digestTriangles(tris [][3]uint32) triangleRef {
	r := triangleRef{seq: fnvOffset}
	for _, t := range tris {
		r.set.add(t[0], t[1], t[2])
		r.seq.words(t[0], t[1], t[2])
	}
	return r
}

// refCliques4 digests every 4-clique of edges.
func refCliques4(edges [][2]uint32) tupleSet {
	g := newRefGraph(edges)
	mark := make([]int32, len(g.out))
	mark2 := make([]int64, len(g.out))
	for i := range mark {
		mark[i] = -1
		mark2[i] = -1
	}
	var set tupleSet
	var common []uint32
	var pair int64
	vs := make([]uint32, 4)
	for u := range g.out {
		for _, v := range g.out[u] {
			mark[v] = int32(u)
		}
		for _, v := range g.out[u] {
			pair++
			common = common[:0]
			for _, w := range g.out[v] {
				if mark[w] == int32(u) {
					common = append(common, w)
					mark2[w] = pair
				}
			}
			for _, w := range common {
				for _, x := range g.out[w] {
					if mark2[x] == pair {
						vs[0], vs[1], vs[2], vs[3] = uint32(u), v, w, x
						sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
						set.add(vs...)
					}
				}
			}
		}
	}
	return set
}
