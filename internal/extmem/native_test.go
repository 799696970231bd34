package extmem

import (
	"testing"
)

// nativeTestCfg returns matching simulated and native machine configs.
func nativeTestCfg() (sim, nat Config) {
	sim = Config{M: 1 << 10, B: 1 << 4, AllowShortCache: true}
	nat = sim
	nat.Native = true
	return
}

// TestNativeSpaceRoundTrip checks that a native Space stores and returns
// words exactly like the simulated machine, with zero Stats.
func TestNativeSpaceRoundTrip(t *testing.T) {
	_, cfg := nativeTestCfg()
	sp, err := newSpace(cfg, newMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	ext := sp.Alloc(100)
	for i := int64(0); i < 100; i++ {
		ext.Write(i, Word(i*i+7))
	}
	for i := int64(0); i < 100; i++ {
		if got := ext.Read(i); got != Word(i*i+7) {
			t.Fatalf("word %d: got %d, want %d", i, got, i*i+7)
		}
	}
	if st := sp.Stats(); st != (Stats{}) {
		t.Fatalf("native Stats not zero: %+v", st)
	}
	if !sp.Resident(ext.Base()) {
		t.Fatal("native words should always be resident")
	}
}

// TestNativeFreshExtentReadsZero pins the virgin-block contract on the
// native path: after Release, a re-allocation over the same addresses
// must read as zero even though the slice capacity holds stale data.
func TestNativeFreshExtentReadsZero(t *testing.T) {
	_, cfg := nativeTestCfg()
	sp, err := newSpace(cfg, newMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	mark := sp.Mark()
	a := sp.Alloc(64)
	a.Fill(0xdead)
	sp.Release(mark)
	b := sp.Alloc(64)
	for i := int64(0); i < 64; i++ {
		if got := b.Read(i); got != 0 {
			t.Fatalf("fresh extent word %d reads %#x, want 0", i, got)
		}
	}
}

// TestNativeLeaseBookkeeping checks the lease counter keeps its simulated
// semantics — same Leased() trajectory, same over-budget panic — because
// cache-aware algorithms derive decomposition grain from M - Leased().
func TestNativeLeaseBookkeeping(t *testing.T) {
	simCfg, natCfg := nativeTestCfg()
	sim, _ := newSpace(simCfg, newMemBackend())
	nat, _ := newSpace(natCfg, newMemBackend())
	defer sim.Close()
	defer nat.Close()

	simLease := sim.Lease(100)
	natLease := nat.Lease(100)
	if sim.Leased() != nat.Leased() {
		t.Fatalf("leased diverged: sim %d, native %d", sim.Leased(), nat.Leased())
	}
	simRest := sim.LeaseAtMost(1 << 20)
	natRest := nat.LeaseAtMost(1 << 20)
	if sim.Leased() != nat.Leased() {
		t.Fatalf("clamped lease diverged: sim %d, native %d", sim.Leased(), nat.Leased())
	}
	simRest.Release()
	natRest.Release()
	simLease.Release()
	natLease.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("over-budget native Lease did not panic")
		}
	}()
	nat.Lease(natCfg.M)
}

// TestNativeSessionMatchesSimulated runs one session workload twice —
// simulated and native — over the same core and checks that every read
// and the resulting snapshot agree word for word.
func TestNativeSessionMatchesSimulated(t *testing.T) {
	simCfg, natCfg := nativeTestCfg()

	core := make([]Word, 4*simCfg.B)
	for i := range core {
		core[i] = Word(i)*2654435761 + 17
	}

	run := func(cfg Config) ([]Word, []Word) {
		sp, err := NewSessionSpace(cfg, WordsCore(core), int64(len(core)), "")
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		in := sp.ExtentAt(0, int64(len(core)))
		scratch := sp.Alloc(in.Len())
		for i := int64(0); i < in.Len(); i++ {
			scratch.Write(i, in.Read(i)^0xabcd)
		}
		reads := make([]Word, 0, 2*in.Len())
		for i := int64(0); i < in.Len(); i++ {
			reads = append(reads, in.Read(i), scratch.Read(i))
		}
		return reads, sp.Snapshot(scratch)
	}

	simReads, simSnap := run(simCfg)
	natReads, natSnap := run(natCfg)
	for i := range simReads {
		if simReads[i] != natReads[i] {
			t.Fatalf("read %d diverged: sim %#x, native %#x", i, simReads[i], natReads[i])
		}
	}
	if len(simSnap) != len(natSnap) {
		t.Fatalf("snapshot length diverged: sim %d, native %d", len(simSnap), len(natSnap))
	}
	for i := range simSnap {
		if simSnap[i] != natSnap[i] {
			t.Fatalf("snapshot word %d diverged: sim %#x, native %#x", i, simSnap[i], natSnap[i])
		}
	}
}

// TestNativeCoreWritePanics pins the read-only-core contract: a native
// session panics immediately on a write below the core watermark.
func TestNativeCoreWritePanics(t *testing.T) {
	_, cfg := nativeTestCfg()
	core := make([]Word, 2*cfg.B)
	sp, err := NewSessionSpace(cfg, WordsCore(core), int64(len(core)), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("native write into the core did not panic")
		}
	}()
	sp.Write(0, 1)
}

// TestNativeShardOverSnapshot checks the worker-shard path: a native
// coordinator's snapshot feeds a native shard that reads the shared
// region and allocates private scratch above it.
func TestNativeShardOverSnapshot(t *testing.T) {
	_, cfg := nativeTestCfg()
	sp, err := newSpace(cfg, newMemBackend())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	ext := sp.Alloc(int64(3 * cfg.B))
	for i := int64(0); i < ext.Len(); i++ {
		ext.Write(i, Word(i)+1000)
	}
	shared := sp.Snapshot(ext)
	shard := NewShardSpace(cfg, shared)
	defer shard.Close()

	in := shard.ExtentAt(0, ext.Len())
	priv := shard.Alloc(ext.Len())
	in.CopyTo(priv)
	for i := int64(0); i < ext.Len(); i++ {
		if got := priv.Read(i); got != Word(i)+1000 {
			t.Fatalf("shard word %d: got %d, want %d", i, got, i+1000)
		}
	}
	if st := shard.Stats(); st != (Stats{}) {
		t.Fatalf("native shard Stats not zero: %+v", st)
	}
}
