package extmem

import (
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func testConfig() Config { return Config{M: 1 << 12, B: 1 << 6} }

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{M: 4096, B: 64}, true},
		{Config{M: 4096, B: 63}, false}, // not a power of two
		{Config{M: 4096, B: 0}, false},  // zero block
		{Config{M: 64, B: 64}, false},   // fewer than two blocks
		{Config{M: 1024, B: 64}, false}, // tall-cache violated
		{Config{M: 1024, B: 64, AllowShortCache: true}, true},
		{Config{M: 4096, B: -64}, false},
	}
	for _, c := range cases {
		_, err := newSpace(c.cfg, newMemBackend())
		if (err == nil) != c.ok {
			t.Errorf("config %+v: err=%v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(10000)
	for i := int64(0); i < ext.Len(); i++ {
		ext.Write(i, uint64(i*i+1))
	}
	for i := int64(0); i < ext.Len(); i++ {
		if got := ext.Read(i); got != uint64(i*i+1) {
			t.Fatalf("word %d: got %d want %d", i, got, i*i+1)
		}
	}
}

func TestFreshMemoryReadsZero(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(1000)
	for i := int64(0); i < ext.Len(); i++ {
		if got := ext.Read(i); got != 0 {
			t.Fatalf("fresh word %d: got %d want 0", i, got)
		}
	}
}

func TestSequentialScanCost(t *testing.T) {
	cfg := testConfig()
	sp := NewSpace(cfg)
	n := int64(100 * cfg.B)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i))
	}
	sp.DropCache()
	sp.ResetStats()
	for i := int64(0); i < n; i++ {
		ext.Read(i)
	}
	st := sp.Stats()
	wantReads := uint64(n) / uint64(cfg.B)
	if st.BlockReads != wantReads {
		t.Errorf("sequential scan of %d words: %d block reads, want %d", n, st.BlockReads, wantReads)
	}
	if st.BlockWrites != 0 {
		t.Errorf("read-only scan caused %d block writes", st.BlockWrites)
	}
}

func TestWriteOnlyScanCostsNoReads(t *testing.T) {
	cfg := testConfig()
	sp := NewSpace(cfg)
	n := int64(64 * cfg.B)
	ext := sp.Alloc(n)
	sp.ResetStats()
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i))
	}
	sp.Flush()
	st := sp.Stats()
	if st.BlockReads != 0 {
		t.Errorf("writing fresh extent caused %d block reads (virgin blocks should not be fetched)", st.BlockReads)
	}
	wantWrites := uint64(n) / uint64(cfg.B)
	if st.BlockWrites != wantWrites {
		t.Errorf("flush wrote %d blocks, want %d", st.BlockWrites, wantWrites)
	}
}

func TestWorkingSetWithinMemoryIsFreeAfterLoad(t *testing.T) {
	cfg := testConfig()
	sp := NewSpace(cfg)
	n := int64(cfg.M / 2)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i))
	}
	sp.DropCache()
	sp.ResetStats()
	rng := rand.New(rand.NewSource(7))
	// Random access within a working set smaller than M: after the first
	// pass, everything is resident and misses stop.
	for pass := 0; pass < 20; pass++ {
		for k := 0; k < 1000; k++ {
			ext.Read(rng.Int63n(n))
		}
	}
	st := sp.Stats()
	maxReads := uint64(n)/uint64(cfg.B) + 1
	if st.BlockReads > maxReads {
		t.Errorf("working set < M incurred %d reads, want <= %d", st.BlockReads, maxReads)
	}
}

func TestThrashingBeyondMemory(t *testing.T) {
	cfg := Config{M: 1 << 12, B: 1 << 6}
	sp := NewSpace(cfg)
	n := int64(4 * cfg.M)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, 1)
	}
	sp.DropCache()
	sp.ResetStats()
	// Cyclic scans over 4M words under LRU miss on every block, every pass.
	passes := 5
	for p := 0; p < passes; p++ {
		for i := int64(0); i < n; i += int64(cfg.B) {
			ext.Read(i)
		}
	}
	st := sp.Stats()
	want := uint64(passes) * uint64(n) / uint64(cfg.B)
	if st.BlockReads != want {
		t.Errorf("cyclic thrash: %d reads, want %d", st.BlockReads, want)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	cfg := Config{M: 4 * 64, B: 64, AllowShortCache: true} // 4 frames
	sp := NewSpace(cfg)
	ext := sp.Alloc(int64(10 * cfg.B))
	for i := int64(0); i < ext.Len(); i++ {
		ext.Write(i, 1)
	}
	sp.DropCache()
	sp.ResetStats()
	b := int64(cfg.B)
	ext.Read(0 * b) // blocks 0..3 resident
	ext.Read(1 * b)
	ext.Read(2 * b)
	ext.Read(3 * b)
	ext.Read(0 * b) // touch 0: LRU order now 1,2,3,0
	ext.Read(4 * b) // evicts 1
	if !sp.Resident(ext.Base() + 0*b) {
		t.Error("block 0 should be resident (recently touched)")
	}
	if sp.Resident(ext.Base() + 1*b) {
		t.Error("block 1 should have been evicted as LRU")
	}
	ext.Read(1 * b) // miss
	st := sp.Stats()
	if st.BlockReads != 6 {
		t.Errorf("got %d block reads, want 6", st.BlockReads)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := Config{M: 2 * 64, B: 64, AllowShortCache: true} // 2 frames
	sp := NewSpace(cfg)
	ext := sp.Alloc(int64(8 * cfg.B))
	ext.Write(0, 42)
	// Touch enough other blocks to evict block 0.
	for blk := int64(1); blk < 8; blk++ {
		ext.Write(blk*int64(cfg.B), uint64(blk))
	}
	if got := ext.Read(0); got != 42 {
		t.Fatalf("after eviction round trip got %d want 42", got)
	}
	st := sp.Stats()
	if st.BlockWrites == 0 {
		t.Error("dirty evictions should count block writes")
	}
}

func TestLeaseShrinksCache(t *testing.T) {
	cfg := Config{M: 8 * 64, B: 64, AllowShortCache: true} // 8 frames
	sp := NewSpace(cfg)
	n := int64(8 * cfg.B)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, 1)
	}
	sp.DropCache()
	// Lease 6 blocks worth: only 2 frames remain.
	lease := sp.Lease(6 * cfg.B)
	sp.ResetStats()
	b := int64(cfg.B)
	ext.Read(0)
	ext.Read(1 * b)
	ext.Read(2 * b) // evicts 0
	ext.Read(0)     // miss again
	if st := sp.Stats(); st.BlockReads != 4 {
		t.Errorf("with shrunken cache got %d reads, want 4", st.BlockReads)
	}
	lease.Release()
	if sp.Leased() != 0 {
		t.Errorf("lease not returned: %d", sp.Leased())
	}
	// Double release is a no-op.
	lease.Release()
	if sp.Leased() != 0 {
		t.Errorf("double release changed lease: %d", sp.Leased())
	}
}

func TestLeaseOverflowPanics(t *testing.T) {
	sp := NewSpace(testConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic when leasing more than M")
		}
	}()
	sp.Lease(sp.Config().M)
}

func TestPeakLeaseTracking(t *testing.T) {
	sp := NewSpace(testConfig())
	l1 := sp.Lease(100)
	l2 := sp.Lease(200)
	l2.Release()
	l1.Release()
	if got := sp.Stats().PeakLease; got != 300 {
		t.Errorf("PeakLease = %d, want 300", got)
	}
}

func TestMarkRelease(t *testing.T) {
	sp := NewSpace(testConfig())
	a := sp.Alloc(1000)
	a.Fill(7)
	mark := sp.Mark()
	b := sp.Alloc(5000)
	b.Fill(9)
	sp.Release(mark)
	if sp.Size() != mark {
		t.Fatalf("size after release = %d, want %d", sp.Size(), mark)
	}
	c := sp.Alloc(5000)
	for i := int64(0); i < c.Len(); i++ {
		if got := c.Read(i); got != 0 {
			t.Fatalf("reallocated word %d = %d, want 0 (fresh)", i, got)
		}
	}
	for i := int64(0); i < a.Len(); i++ {
		if got := a.Read(i); got != 7 {
			t.Fatalf("surviving extent word %d = %d, want 7", i, got)
		}
	}
}

func TestExtentSliceBounds(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(100)
	s := ext.Slice(10, 60)
	if s.Len() != 50 {
		t.Fatalf("slice len %d want 50", s.Len())
	}
	s.Write(0, 5)
	if ext.Read(10) != 5 {
		t.Error("slice write did not alias parent")
	}
	for _, bad := range [][2]int64{{-1, 10}, {5, 101}, {60, 50}} {
		func() {
			defer func() { recover() }()
			ext.Slice(bad[0], bad[1])
			t.Errorf("Slice(%d,%d) should panic", bad[0], bad[1])
		}()
	}
}

func TestExtentOutOfRangePanics(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(10)
	for _, i := range []int64{-1, 10, 100} {
		func() {
			defer func() { recover() }()
			ext.Read(i)
			t.Errorf("Read(%d) should panic", i)
		}()
	}
}

func TestLoadStoreCopy(t *testing.T) {
	sp := NewSpace(testConfig())
	src := sp.Alloc(256)
	for i := int64(0); i < 256; i++ {
		src.Write(i, uint64(i)*3)
	}
	buf := make([]Word, 256)
	src.Load(buf)
	for i, w := range buf {
		if w != uint64(i)*3 {
			t.Fatalf("Load[%d]=%d", i, w)
		}
	}
	dst := sp.Alloc(256)
	src.CopyTo(dst)
	for i := int64(0); i < 256; i++ {
		if dst.Read(i) != uint64(i)*3 {
			t.Fatalf("CopyTo[%d]", i)
		}
	}
	dst2 := sp.Alloc(300)
	dst2.Store(buf)
	if dst2.Read(255) != 255*3 {
		t.Error("Store mismatch")
	}
}

// TestCopyTo copies within one Space and into another, between offsets
// that are not block-aligned, and checks that an overlapping copy panics.
func TestCopyTo(t *testing.T) {
	sp := NewSpace(tinyConfig(false))
	src := sp.Alloc(64)
	for i := int64(0); i < 64; i++ {
		src.Write(i, uint64(i*i))
	}
	dst := sp.Alloc(64)
	src.CopyTo(dst)
	for i := int64(0); i < 64; i++ {
		if got := dst.Read(i); got != uint64(i*i) {
			t.Fatalf("CopyTo word %d = %d, want %d", i, got, i*i)
		}
	}
	far := NewSpace(tinyConfig(true)).Alloc(70)
	src.Slice(3, 64).CopyTo(far.Slice(5, 70))
	for i := int64(3); i < 64; i++ {
		if got := far.Read(i + 2); got != uint64(i*i) {
			t.Fatalf("CopyTo into another Space: word %d = %d, want %d", i+2, got, i*i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyTo between overlapping extents did not panic")
		}
	}()
	src.Slice(0, 10).CopyTo(src.Slice(5, 15))
}

func TestFileBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk.bin")
	sp, err := NewFileSpace(Config{M: 1 << 10, B: 1 << 5}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	n := int64(10000)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, uint64(i)^0xdeadbeef)
	}
	sp.DropCache() // forces write-back through the file
	for i := int64(0); i < n; i += 97 {
		if got := ext.Read(i); got != uint64(i)^0xdeadbeef {
			t.Fatalf("file round trip word %d: got %d", i, got)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestStatsReset(t *testing.T) {
	sp := NewSpace(testConfig())
	ext := sp.Alloc(int64(10 * sp.Config().B))
	ext.Fill(1)
	sp.ResetStats()
	if io := sp.Stats().IOs(); io != 0 {
		t.Errorf("after reset IOs=%d", io)
	}
}

// Property: the simulated space behaves exactly like a flat array under any
// access sequence (the cache is transparent).
func TestQuickTransparency(t *testing.T) {
	prop := func(ops []uint32, seed int64) bool {
		cfg := Config{M: 1 << 9, B: 1 << 4, AllowShortCache: true}
		sp := NewSpace(cfg)
		const n = 2048
		ext := sp.Alloc(n)
		ref := make([]Word, n)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			addr := int64(op) % n
			if op&1 == 0 {
				v := rng.Uint64()
				ext.Write(addr, v)
				ref[addr] = v
			} else if ext.Read(addr) != ref[addr] {
				return false
			}
		}
		for i := int64(0); i < n; i++ {
			if ext.Read(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: LRU miss counts match a straightforward reference simulation.
func TestQuickLRUMatchesReference(t *testing.T) {
	prop := func(accesses []uint16) bool {
		cfg := Config{M: 8 * 16, B: 16, AllowShortCache: true} // 8 frames
		sp := NewSpace(cfg)
		const n = 64 * 16
		ext := sp.Alloc(n)
		for i := int64(0); i < n; i++ {
			ext.Write(i, 1)
		}
		sp.DropCache()
		sp.ResetStats()
		// Reference LRU.
		type ref struct{ blocks []int64 }
		var r ref
		misses := uint64(0)
		touch := func(b int64) {
			for i, x := range r.blocks {
				if x == b {
					r.blocks = append(append(append([]int64{}, r.blocks[:i]...), r.blocks[i+1:]...), b)
					return
				}
			}
			misses++
			r.blocks = append(r.blocks, b)
			if len(r.blocks) > 8 {
				r.blocks = r.blocks[1:]
			}
		}
		for _, a := range accesses {
			addr := int64(a) % n
			ext.Read(addr)
			touch(addr / 16)
		}
		return sp.Stats().BlockReads == misses
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
