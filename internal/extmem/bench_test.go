package extmem

import (
	"path/filepath"
	"testing"
)

// benchWords is the extent each per-word benchmark iteration covers: 2^16
// words, sixteen times the benchmark machine's M, so a sequential pass
// misses the cache once per block.
const benchWords = 1 << 16

// spaceKinds are the machines the per-word benchmarks run on: the
// simulated cache over the memory and the file backend, and the native
// fast path, which keeps words in plain slices whatever the backend.
var spaceKinds = []struct {
	name   string
	file   bool
	native bool
}{
	{"mem/simulated", false, false},
	{"file/simulated", true, false},
	{"mem/native", false, true},
}

// newBenchSpace returns a fresh Space; a file-backed one truncates path.
func newBenchSpace(b *testing.B, file, native bool, path string) *Space {
	b.Helper()
	cfg := testConfig()
	cfg.Native = native
	if !file {
		return NewSpace(cfg)
	}
	sp, err := NewFileSpace(cfg, path)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// scanners are the two ways the per-word benchmarks move an extent's
// words: one Read or Write per word, and view, one View or Store per
// block. Word a of the extent holds a.
var scanners = []struct {
	name  string
	read  func(Extent) Word // the sum of the extent's words
	write func(Extent)
}{
	{"", readWords, writeWords},
	{"/view", readViews, storeBlocks},
}

func readWords(ext Extent) (sum Word) {
	for a := range ext.Len() {
		sum += ext.Read(a)
	}
	return sum
}

func readViews(ext Extent) (sum Word) {
	for a := int64(0); a < ext.Len(); {
		view := ext.View(a)
		for _, w := range view {
			sum += w
		}
		a += int64(len(view))
	}
	return sum
}

func writeWords(ext Extent) {
	for a := range ext.Len() {
		ext.Write(a, Word(a))
	}
}

// storeBlocks stores ext one block at a time from a one-block buffer.
func storeBlocks(ext Extent) {
	bw := int64(ext.Space().Config().B)
	buf := make([]Word, bw)
	for a := int64(0); a < ext.Len(); a += bw {
		for j := range buf {
			buf[j] = Word(a) + Word(j)
		}
		ext.Slice(a, a+bw).Store(buf)
	}
}

// BenchmarkSpaceWrite writes benchWords words in address order into a fresh
// Space per iteration and flushes them, so the cost includes the backend
// growing to hold them (the memory backend's array, the file's length, the
// native scratch slice). Each backend kind has a row per scanner. Reports
// ns/word.
func BenchmarkSpaceWrite(b *testing.B) {
	for _, k := range spaceKinds {
		for _, sc := range scanners {
			b.Run(k.name+sc.name, func(b *testing.B) {
				path := filepath.Join(b.TempDir(), "space.bin")
				b.ReportAllocs()
				b.SetBytes(benchWords * 8)
				for i := 0; i < b.N; i++ {
					sp := newBenchSpace(b, k.file, k.native, path)
					sc.write(sp.Alloc(benchWords))
					sp.Flush()
					if err := sp.Close(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchWords, "ns/word")
			})
		}
	}
}

// BenchmarkSpaceRead scans benchWords words in address order per iteration,
// from a cold cache, out of a Space written once before the timer starts.
// Each backend kind has a row per scanner. Reports ns/word.
func BenchmarkSpaceRead(b *testing.B) {
	for _, k := range spaceKinds {
		for _, sc := range scanners {
			b.Run(k.name+sc.name, func(b *testing.B) {
				sp := newBenchSpace(b, k.file, k.native, filepath.Join(b.TempDir(), "space.bin"))
				defer sp.Close()
				ext := sp.Alloc(benchWords)
				writeWords(ext)
				sp.DropCache() // write back here, so the loop only reads
				b.ReportAllocs()
				b.SetBytes(benchWords * 8)
				b.ResetTimer()
				var sum Word
				for i := 0; i < b.N; i++ {
					sp.DropCache()
					sum += sc.read(ext)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchWords, "ns/word")
				if want := Word(benchWords) * (benchWords - 1) / 2 * Word(b.N); sum != want {
					b.Fatalf("read sum %d, want %d", sum, want)
				}
			})
		}
	}
}
