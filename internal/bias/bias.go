// Package bias implements the small-bias sample spaces the deterministic
// algorithm of Section 4 draws its two-colorings from (Lemma 6, citing
// Alon, Goldreich, Håstad and Peralta).
//
// Construction. A two-coloring b: V → {0,1} is b_s(v) = <s, C(v)> where
//
//   - C(v) ∈ {0,1}^ℓ is the v-th column of the parity-check matrix of a
//     double-error-correcting BCH code: C(v) = (1, x_v, x_v^3) with x_v the
//     (v+1)-st nonzero element of GF(2^m), ℓ = 2m+1. Any four distinct
//     columns are linearly independent, so for a uniformly random seed s
//     the bits b_s(v1..v4) would be exactly 4-wise independent.
//   - s is drawn not uniformly but from an ε-biased space over ℓ bits
//     (AGHP "powering" construction: seeds are pairs (x,y) ∈ GF(2^r)², and
//     s_i = <bits(x^(i+1)), bits(y)>), which shrinks the family to
//     t = |GF(2^r)|² functions while keeping every 4-tuple of bits within
//     ε of uniform in L∞ — the guarantee Lemma 6 states.
//
// The theoretical family size for the paper's α = 1/log c is far too large
// to enumerate in a simulation, so Family takes its size as a parameter
// and the caller (the derandomized algorithm) verifies the paper's
// invariant (4) at run time after greedily selecting from the enumerated
// prefix. See the "Substitutions" section of ARCHITECTURE.md for the
// substitution note.
package bias

import "math/bits"

// gf2Primitive holds primitive/irreducible polynomials for GF(2^m),
// m = 1..31, as the low-order bits beyond x^m (the standard table of
// primitive trinomials/pentanomials).
var gf2Primitive = map[int]uint64{
	1: 0x1, 2: 0x3, 3: 0x3, 4: 0x3, 5: 0x5, 6: 0x3, 7: 0x3, 8: 0x1b,
	9: 0x11, 10: 0x9, 11: 0x5, 12: 0x53, 13: 0x1b, 14: 0x2b, 15: 0x3,
	16: 0x2d, 17: 0x9, 18: 0x81, 19: 0x27, 20: 0x9, 21: 0x5, 22: 0x3,
	23: 0x21, 24: 0x87, 25: 0x9, 26: 0x47, 27: 0x27, 28: 0x9, 29: 0x5,
	30: 0x53, 31: 0x9,
}

// GF is a binary extension field GF(2^m) with m <= 31.
type GF struct {
	m    int
	poly uint64 // reduction polynomial: x^m + (poly bits)
}

// NewGF returns the field GF(2^m).
func NewGF(m int) GF {
	p, ok := gf2Primitive[m]
	if !ok {
		panic("bias: unsupported field degree")
	}
	return GF{m: m, poly: p}
}

// Order returns 2^m.
func (f GF) Order() uint64 { return 1 << uint(f.m) }

// Mul multiplies two field elements (carry-less multiply with reduction).
func (f GF) Mul(a, b uint64) uint64 {
	var acc uint64
	for b != 0 {
		if b&1 != 0 {
			acc ^= a
		}
		b >>= 1
		a <<= 1
		if a&(1<<uint(f.m)) != 0 {
			a ^= (1 << uint(f.m)) | f.poly
		}
	}
	return acc
}

// Pow raises a to the e-th power.
func (f GF) Pow(a uint64, e uint64) uint64 {
	result := uint64(1)
	for e > 0 {
		if e&1 != 0 {
			result = f.Mul(result, a)
		}
		a = f.Mul(a, a)
		e >>= 1
	}
	return result
}

// BCHCode generates the codewords C(v) = (1, x_v, x_v^3) packed into a
// uint64: bit 0 is the constant 1, bits 1..m are x_v, bits m+1..2m are
// x_v^3. Any four distinct codewords are linearly independent over GF(2).
type BCHCode struct {
	f GF
}

// NewBCHCode returns a code able to address at least n positions (vertex
// ids 0..n−1).
func NewBCHCode(n int) BCHCode {
	m := 1
	for (uint64(1)<<uint(m))-1 < uint64(n) {
		m++
	}
	if 2*m+1 > 63 {
		panic("bias: position space too large")
	}
	return BCHCode{f: NewGF(m)}
}

// Len returns the codeword length ℓ = 2m+1.
func (c BCHCode) Len() int { return 2*c.f.m + 1 }

// Positions returns the number of addressable positions, 2^m − 1.
func (c BCHCode) Positions() uint64 { return c.f.Order() - 1 }

// Word returns the packed codeword for position v (0-based).
func (c BCHCode) Word(v uint32) uint64 {
	x := uint64(v)%c.Positions() + 1 // nonzero field element
	x3 := c.f.Mul(c.f.Mul(x, x), x)
	return 1 | x<<1 | x3<<uint(1+c.f.m)
}

// EpsBiased is an ε-biased sample space over ℓ-bit strings via the AGHP
// powering construction: the seed set is GF(2^r)², and the string for seed
// (x, y) has i-th bit <bits(x^(i+1)), bits(y)>. Its bias is at most
// (ℓ−1)/2^r.
type EpsBiased struct {
	f GF
	l int
}

// NewEpsBiased returns a space over strings of length l whose size is at
// least minSize (rounded up to the next 4^k).
func NewEpsBiased(l, minSize int) EpsBiased {
	r := 1
	for (1<<uint(2*r)) < minSize || r < 2 {
		r++
	}
	if r > 31 {
		panic("bias: sample space too large")
	}
	return EpsBiased{f: NewGF(r), l: l}
}

// Size returns the number of sample points, |GF(2^r)|².
func (e EpsBiased) Size() int { return int(e.f.Order() * e.f.Order()) }

// Bias returns the construction's bias upper bound (ℓ−1)/2^r.
func (e EpsBiased) Bias() float64 {
	return float64(e.l-1) / float64(e.f.Order())
}

// String returns the j-th sample string packed into a uint64 (ℓ <= 63).
func (e EpsBiased) String(j int) uint64 {
	q := e.f.Order()
	x := uint64(j) % q
	y := uint64(j) / q
	var s uint64
	xi := x // x^(i+1), starting at x^1
	for i := 0; i < e.l; i++ {
		if parity(xi&y) == 1 {
			s |= 1 << uint(i)
		}
		xi = e.f.Mul(xi, x)
	}
	return s
}

func parity(x uint64) uint64 { return uint64(bits.OnesCount64(x)) & 1 }

// Family is the almost 4-wise independent family of two-colorings used by
// the derandomization: member j is b_j(v) = <s_j, C(v)>.
type Family struct {
	code  BCHCode
	space EpsBiased
	seeds []uint64
}

// NewFamily builds a family of at least size colorings of positions
// 0..n−1. The family is fully deterministic.
func NewFamily(n, size int) *Family {
	code := NewBCHCode(n)
	space := NewEpsBiased(code.Len(), size)
	f := &Family{code: code, space: space}
	f.seeds = make([]uint64, space.Size())
	for j := range f.seeds {
		f.seeds[j] = space.String(j)
	}
	return f
}

// Size returns the number of colorings in the family.
func (f *Family) Size() int { return len(f.seeds) }

// BiasBound returns the ε for which every 4-tuple pattern probability over
// the family is within ε of the uniform 2^-4 (Lemma 6's (1+α)2^-4 with
// α = 16ε).
func (f *Family) BiasBound() float64 { return f.space.Bias() }

// CodeWord exposes the packed BCH codeword of v so callers can evaluate
// many family members per vertex with one AND+POPCNT each.
func (f *Family) CodeWord(v uint32) uint64 { return f.code.Word(v) }

// Seed returns the packed seed string of member j.
func (f *Family) Seed(j int) uint64 { return f.seeds[j] }

// Bit evaluates member j at position v.
func (f *Family) Bit(j int, v uint32) uint64 {
	return parity(f.seeds[j] & f.code.Word(v))
}

// EvalSeed evaluates a packed seed against a packed codeword.
func EvalSeed(seed, codeword uint64) uint64 { return parity(seed & codeword) }
