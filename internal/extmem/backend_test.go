package extmem

import (
	"math/bits"
	"testing"
)

// fillBlock returns a block of b words, all equal to v.
func fillBlock(b int, v Word) []Word {
	blk := make([]Word, b)
	for i := range blk {
		blk[i] = v
	}
	return blk
}

func TestMemBackendGrowsGeometrically(t *testing.T) {
	const b, n = 64, 1 << 12
	m := newMemBackend()
	reallocs, lastCap := 0, 0
	for blk := int64(0); blk < n; blk++ {
		if err := m.WriteBlock(blk, fillBlock(b, Word(blk)+1)); err != nil {
			t.Fatal(err)
		}
		if c := cap(m.words); c != lastCap {
			reallocs++
			lastCap = c
		}
	}
	if limit := bits.Len(n) + 1; reallocs > limit {
		t.Errorf("%d ascending block writes reallocated %d times, want at most %d", n, reallocs, limit)
	}
	dst := make([]Word, b)
	for blk := int64(0); blk < n; blk++ {
		if err := m.ReadBlock(blk, dst); err != nil {
			t.Fatal(err)
		}
		for i, w := range dst {
			if w != Word(blk)+1 {
				t.Fatalf("block %d word %d: got %d, want %d", blk, i, w, blk+1)
			}
		}
	}
}

func TestMemBackendUnwrittenReadsZero(t *testing.T) {
	const b = 16
	m := newMemBackend()
	written := map[int64]bool{}
	write := func(blk int64) {
		t.Helper()
		if err := m.WriteBlock(blk, fillBlock(b, ^Word(0))); err != nil {
			t.Fatal(err)
		}
		written[blk] = true
	}
	check := func(what string, upTo int64) {
		t.Helper()
		dst := make([]Word, b)
		for blk := int64(0); blk < upTo; blk++ {
			if err := m.ReadBlock(blk, dst); err != nil {
				t.Fatal(err)
			}
			want := Word(0)
			if written[blk] {
				want = ^Word(0)
			}
			for i, w := range dst {
				if w != want {
					t.Fatalf("%s: block %d word %d = %#x, want %#x", what, blk, i, w, want)
				}
			}
		}
	}
	// Blocks 0, 1, 2, 4: the array holds 5 blocks, capacity for 8, and
	// block 3 is a hole below the highest written block.
	for _, blk := range []int64{0, 1, 2, 4} {
		write(blk)
	}
	if len(m.words) != 5*b || cap(m.words) != 8*b {
		t.Fatalf("len/cap = %d/%d words, want %d/%d", len(m.words), cap(m.words), 5*b, 8*b)
	}
	check("hole, spare capacity and beyond", 12)
	// Extending over part of the spare capacity leaves the rest of it,
	// and the block skipped on the way, reading zero.
	write(6)
	check("after extending into spare capacity", 12)
}
