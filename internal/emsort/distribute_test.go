package emsort

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/extmem"
)

// bucketKey hashes a word into [0, buckets) — the shape of a color-pair
// key: unrelated to the word order, with many ties.
func bucketKey(buckets int) Key {
	return func(w extmem.Word) uint64 { return (w * 0x9E3779B97F4A7C15 >> 20) % uint64(buckets) }
}

// skewedKey sends about nine words in ten to bucket 0 and spreads the
// rest, so one buffer fills fast while the others are written rarely.
func skewedKey(buckets int) Key {
	h := bucketKey(buckets)
	return func(w extmem.Word) uint64 {
		if w%10 != 0 {
			return 0
		}
		return h(w)
	}
}

// distributeCase is one Distribute input: n random words (sorted by word
// if sorted) on a machine, grouped into buckets by key.
type distributeCase struct {
	name    string
	cfg     extmem.Config
	n       int64
	buckets int
	key     func(int) Key
	sorted  bool
}

var distributeCases = []distributeCase{
	{"one-pass", extmem.Config{M: 1 << 12, B: 1 << 6}, 40000, 16, bucketKey, true},
	{"one-pass-skewed", extmem.Config{M: 1 << 12, B: 1 << 6}, 40000, 16, skewedKey, true},
	{"one-pass-small-machine", extmem.Config{M: 1 << 8, B: 1 << 4}, 20000, 10, bucketKey, true},
	{"two-pass", extmem.Config{M: 1 << 8, B: 1 << 4}, 20000, 40, bucketKey, true},
	{"two-pass-skewed", extmem.Config{M: 1 << 8, B: 1 << 4}, 20000, 17, skewedKey, true},
	{"three-pass", extmem.Config{M: 1 << 8, B: 1 << 4}, 20000, 120, bucketKey, true},
	{"unsorted", extmem.Config{M: 1 << 8, B: 1 << 4}, 5000, 40, bucketKey, false},
	{"unsorted-one-pass", extmem.Config{M: 1 << 12, B: 1 << 6}, 5000, 7, bucketKey, false},
	{"tiny", extmem.Config{M: 1 << 8, B: 1 << 4}, 3, 40, bucketKey, true},
	{"empty", extmem.Config{M: 1 << 8, B: 1 << 4}, 0, 5, bucketKey, true},
}

// words returns the case's input.
func (dc distributeCase) words() []extmem.Word {
	rng := rand.New(rand.NewSource(dc.n + int64(dc.buckets)))
	ws := make([]extmem.Word, dc.n)
	for i := range ws {
		ws[i] = rng.Uint64() >> 8 // room for many ties in the key
	}
	if dc.sorted {
		slices.Sort(ws)
	}
	return ws
}

// run distributes the case's input on a fresh Space from a cold cache and
// returns the output words, the offsets and the run's flushed I/O count.
func (dc distributeCase) run(native bool) ([]extmem.Word, []int64, uint64) {
	cfg := dc.cfg
	cfg.Native = native
	sp := extmem.NewSpace(cfg)
	src := sp.Alloc(dc.n)
	src.Store(dc.words())
	sp.DropCache()
	sp.ResetStats()
	dst := sp.Alloc(dc.n)
	off := Distribute(dst, src, dc.buckets, dc.key(dc.buckets))
	sp.Flush()
	ios := sp.Stats().IOs()
	out := make([]extmem.Word, dc.n)
	dst.Load(out)
	return out, off, ios
}

// TestDistributeMatchesSortRecords pins the two orders Distribute
// promises: on word-sorted input the bytes of SortRecords by the same key
// (one pass and two or three LSD passes), and on any input a stable
// grouping — the input order within each bucket.
func TestDistributeMatchesSortRecords(t *testing.T) {
	for _, dc := range distributeCases {
		t.Run(dc.name, func(t *testing.T) {
			in := dc.words()
			key := dc.key(dc.buckets)
			got, off, _ := dc.run(false)

			want := slices.Clone(in)
			if dc.sorted {
				sp := extmem.NewSpace(dc.cfg)
				ref := sp.Alloc(dc.n)
				ref.Store(in)
				SortRecords(ref, 1, key)
				ref.Load(want)
			}
			sort.SliceStable(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
			if !slices.Equal(got, want) {
				t.Fatalf("output differs from the stable grouping by key")
			}
			if len(off) != dc.buckets+1 || off[0] != 0 || off[dc.buckets] != dc.n {
				t.Fatalf("offsets %v do not frame %d words in %d buckets", off, dc.n, dc.buckets)
			}
			for b := 0; b < dc.buckets; b++ {
				for i := off[b]; i < off[b+1]; i++ {
					if key(got[i]) != uint64(b) {
						t.Fatalf("word %d has key %d, lies in bucket %d", i, key(got[i]), b)
					}
				}
			}
		})
	}
	// The cases above must cover both regimes of the pass plan.
	for _, c := range []struct {
		cfg             extmem.Config
		buckets, passes int
	}{
		{extmem.Config{M: 1 << 12, B: 1 << 6}, 16, 1},
		{extmem.Config{M: 1 << 8, B: 1 << 4}, 17, 2},
		{extmem.Config{M: 1 << 8, B: 1 << 4}, 40, 2},
		{extmem.Config{M: 1 << 8, B: 1 << 4}, 120, 3},
	} {
		if _, passes := distributePlan(c.cfg, c.cfg.M-(c.buckets+1), c.buckets); passes != c.passes {
			t.Errorf("M=%d B=%d, %d buckets: %d passes, want %d", c.cfg.M, c.cfg.B, c.buckets, passes, c.passes)
		}
	}
}

// TestDistributePassCost pins the I/O bound: each pass costs at most
// 3·⌈n/B⌉ + 2·f block transfers, f the pass's fan-out, on an aligned
// source and a fresh destination — skewed keys included.
func TestDistributePassCost(t *testing.T) {
	for _, dc := range distributeCases {
		if dc.n == 0 {
			continue
		}
		_, _, ios := dc.run(false)
		fan, passes := distributePlan(dc.cfg, dc.cfg.M-(dc.buckets+1), dc.buckets)
		blocks := (dc.n + int64(dc.cfg.B) - 1) / int64(dc.cfg.B)
		bound := uint64(passes) * uint64(3*blocks+2*int64(fan))
		if ios > bound {
			t.Errorf("%s: %d IOs over %d passes of fan-out %d, bound %d", dc.name, ios, passes, fan, bound)
		}
		t.Logf("%s: %d IOs, bound %d (%d passes of fan-out %d)", dc.name, ios, bound, passes, fan)
	}
}

// TestDistributeNative: the native machine writes the same bytes and
// offsets as the simulated one and reports no I/O.
func TestDistributeNative(t *testing.T) {
	for _, dc := range distributeCases {
		sim, simOff, _ := dc.run(false)
		nat, natOff, ios := dc.run(true)
		if !slices.Equal(sim, nat) || !slices.Equal(simOff, natOff) {
			t.Errorf("%s: native output differs from simulated", dc.name)
		}
		if ios != 0 {
			t.Errorf("%s: native run reported %d IOs", dc.name, ios)
		}
	}
}

func TestDistributeKeyOutOfRange(t *testing.T) {
	sp := newSpace()
	src := sp.Alloc(100)
	fillRandom(src, 1)
	dst := sp.Alloc(100)
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, "out of range") {
			t.Fatalf("recovered %v, want an out-of-range panic", r)
		}
	}()
	Distribute(dst, src, 4, func(w extmem.Word) uint64 { return w % 5 })
}
