package extmem

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func shardCfg() Config { return Config{M: 1 << 8, B: 1 << 4, AllowShortCache: true} }

func TestSnapshotSeesFlushedAndCachedData(t *testing.T) {
	sp := NewSpace(shardCfg())
	ext := sp.Alloc(100)
	for i := int64(0); i < 100; i++ {
		ext.Write(i, Word(i*i+1))
	}
	// Force some blocks out of the cache so the snapshot must read the
	// backend, and leave others dirty in the cache.
	spill := sp.Alloc(int64(sp.Config().M) * 4)
	for i := int64(0); i < spill.Len(); i += int64(sp.Config().B) {
		spill.Write(i, 7)
	}
	snap := sp.Snapshot(ext)
	if len(snap)%sp.Config().B != 0 {
		t.Fatalf("snapshot length %d is not whole blocks", len(snap))
	}
	for i := int64(0); i < 100; i++ {
		if snap[i] != Word(i*i+1) {
			t.Fatalf("snapshot[%d] = %d, want %d", i, snap[i], i*i+1)
		}
	}
}

func TestSnapshotVirginBlocksReadZero(t *testing.T) {
	sp := NewSpace(shardCfg())
	// Dirty a region, release it, and allocate over the same addresses:
	// the stale backend content must not leak into the snapshot.
	mark := sp.Mark()
	junk := sp.Alloc(64)
	junk.Fill(0xdead)
	sp.Flush()
	sp.Release(mark)
	ext := sp.Alloc(64)
	ext.Write(0, 42) // materialize only the first block
	snap := sp.Snapshot(ext)
	if snap[0] != 42 {
		t.Fatalf("snap[0] = %d, want 42", snap[0])
	}
	for i := int64(sp.Config().B); i < 64; i++ {
		if snap[i] != 0 {
			t.Fatalf("virgin word %d reads %d, want 0", i, snap[i])
		}
	}
}

func TestSnapshotCountsDirtyWriteBacks(t *testing.T) {
	sp := NewSpace(shardCfg())
	ext := sp.Alloc(int64(sp.Config().B) * 2)
	ext.Fill(3)
	before := sp.Stats().BlockWrites
	sp.Snapshot(ext)
	after := sp.Stats().BlockWrites
	if after != before+2 {
		t.Errorf("snapshot of 2 dirty blocks counted %d writes, want 2", after-before)
	}
	// A second snapshot finds the blocks clean: no further writes.
	if sp.Snapshot(ext); sp.Stats().BlockWrites != after {
		t.Error("snapshot of clean blocks counted writes")
	}
}

func TestShardReadsSharedRegion(t *testing.T) {
	sp := NewSpace(shardCfg())
	ext := sp.Alloc(96)
	for i := int64(0); i < 96; i++ {
		ext.Write(i, Word(i+5))
	}
	snap := sp.Snapshot(ext)
	shard := NewShardSpace(shardCfg(), snap)
	view := shard.ExtentAt(0, 96)
	for i := int64(0); i < 96; i++ {
		if got := view.Read(i); got != Word(i+5) {
			t.Fatalf("shard read %d = %d, want %d", i, got, i+5)
		}
	}
	if r := shard.Stats().BlockReads; r != 6 {
		t.Errorf("cold scan of 6 shared blocks cost %d reads, want 6", r)
	}
}

func TestShardPrivateScratchIsIsolated(t *testing.T) {
	base := make([]Word, 32)
	for i := range base {
		base[i] = Word(100 + i)
	}
	cfg := shardCfg()
	a := NewShardSpace(cfg, base)
	b := NewShardSpace(cfg, base)
	ea := a.Alloc(50)
	eb := b.Alloc(50)
	ea.Fill(1)
	eb.Fill(2)
	a.Flush()
	b.Flush()
	a.DropCache()
	b.DropCache()
	for i := int64(0); i < 50; i++ {
		if ea.Read(i) != 1 || eb.Read(i) != 2 {
			t.Fatalf("scratch not isolated at %d: %d/%d", i, ea.Read(i), eb.Read(i))
		}
	}
	// The shared region is still intact underneath both.
	if a.ExtentAt(0, 32).Read(7) != 107 || b.ExtentAt(0, 32).Read(7) != 107 {
		t.Error("shared region corrupted by private scratch")
	}
}

func TestShardWriteToSharedRegionPanics(t *testing.T) {
	shard := NewShardSpace(shardCfg(), make([]Word, 32))
	defer func() {
		if recover() == nil {
			t.Error("write-back into the shared region did not panic")
		}
	}()
	shard.ExtentAt(0, 32).Write(0, 9)
	shard.Flush()
}

func TestShardStatsSumIndependentOfScheduling(t *testing.T) {
	// The same task set, run on 1 shard and on 4 concurrent shards, must
	// produce the same summed stats: per-task accounting is confined.
	cfg := shardCfg()
	shared := make([]Word, 256)
	for i := range shared {
		shared[i] = Word(i)
	}
	task := func(sp *Space, salt int64) {
		base := sp.Mark()
		scratch := sp.Alloc(128)
		view := sp.ExtentAt(0, 256)
		for i := int64(0); i < 128; i++ {
			scratch.Write(i, view.Read(2*i)+Word(salt))
		}
		var sum Word
		for i := int64(0); i < 128; i++ {
			sum += scratch.Read(i)
		}
		_ = sum
		sp.Release(base)
		sp.DropCache()
	}
	sequential := func() Stats {
		sp := NewShardSpace(cfg, shared)
		for salt := int64(0); salt < 8; salt++ {
			task(sp, salt)
		}
		return sp.Stats()
	}()
	var wg sync.WaitGroup
	shards := make([]*Space, 4)
	for w := range shards {
		shards[w] = NewShardSpace(cfg, shared)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for salt := int64(w); salt < 8; salt += 4 {
				task(shards[w], salt)
			}
		}(w)
	}
	wg.Wait()
	var total Stats
	for _, sp := range shards {
		total.Add(sp.Stats())
	}
	if total.BlockReads != sequential.BlockReads || total.BlockWrites != sequential.BlockWrites ||
		total.WordReads != sequential.WordReads || total.WordWrites != sequential.WordWrites {
		t.Errorf("scheduling changed the aggregate: 1 shard %+v, 4 shards %+v", sequential, total)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{BlockReads: 1, BlockWrites: 2, WordReads: 3, WordWrites: 4, PeakLease: 10, PeakAlloc: 100}
	b := Stats{BlockReads: 10, BlockWrites: 20, WordReads: 30, WordWrites: 40, PeakLease: 5, PeakAlloc: 500}
	a.Add(b)
	want := Stats{BlockReads: 11, BlockWrites: 22, WordReads: 33, WordWrites: 44, PeakLease: 10, PeakAlloc: 500}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}

func TestExtentAtBounds(t *testing.T) {
	sp := NewSpace(shardCfg())
	sp.Alloc(40)
	if got := sp.ExtentAt(8, 16); got.Len() != 16 || got.Base() != 8 {
		t.Errorf("ExtentAt gave base=%d len=%d", got.Base(), got.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range ExtentAt did not panic")
		}
	}()
	sp.ExtentAt(8, 1<<40)
}

func TestNewShardSpaceRejectsRaggedRegion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged shared region accepted")
		}
	}()
	NewShardSpace(shardCfg(), make([]Word, 17))
}

// TestRunOrderedDeliversInTaskOrder: tasks that finish in reverse order
// still reach the consumer in task order.
func TestRunOrderedDeliversInTaskOrder(t *testing.T) {
	const n = 6
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	var mu sync.Mutex
	var finishOrder []int
	task := func(i int, _ *Space, send func(int) bool) {
		<-finished[i+1] // task i ends only after task i+1 has
		send(10 * i)
		send(10*i + 1)
		mu.Lock()
		finishOrder = append(finishOrder, i)
		mu.Unlock()
		close(finished[i])
	}
	var got []int
	_, err := RunOrdered(nil, shardCfg(), make([]Word, 16), n, task, n, 2, func(task, out int) {
		if out/10 != task {
			t.Errorf("task %d delivered output %d", task, out)
		}
		got = append(got, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 4, 3, 2, 1, 0}; !slices.Equal(finishOrder, want) {
		t.Fatalf("tasks finished in order %v, want %v", finishOrder, want)
	}
	if want := []int{0, 1, 10, 11, 20, 21, 30, 31, 40, 41, 50, 51}; !slices.Equal(got, want) {
		t.Errorf("consumer saw %v, want %v", got, want)
	}
}

// TestRunOrderedStatsInvariantAcrossWorkers: each task runs on a cold
// cache, so the per-worker stats sum to the same total at every worker
// count.
func TestRunOrderedStatsInvariantAcrossWorkers(t *testing.T) {
	cfg := shardCfg()
	shared := make([]Word, 512)
	for i := range shared {
		shared[i] = Word(i)
	}
	task := func(i int, sp *Space, send func(Word) bool) {
		// Every task reads the same 64 words, so a task that found its
		// predecessor's cache warm would read fewer blocks; the scratch
		// of 2M words forces write-backs.
		view := sp.ExtentAt(0, 64)
		scratch := sp.Alloc(2 * int64(cfg.M))
		for j := int64(0); j < scratch.Len(); j++ {
			scratch.Write(j, view.Read(j%64)+Word(i))
		}
		send(scratch.Read(0))
	}
	var want Stats
	for _, workers := range []int{1, 2, 8} {
		ws, err := RunOrdered(nil, cfg, shared, 8, task, workers, 1, func(int, Word) {})
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != workers {
			t.Fatalf("%d workers reported %d stat entries", workers, len(ws))
		}
		var total Stats
		for _, st := range ws {
			total.Add(st)
		}
		total.PeakLease, total.PeakAlloc = 0, 0
		if workers == 1 {
			if total.BlockReads == 0 || total.BlockWrites == 0 {
				t.Fatalf("tasks did no I/O: %+v", total)
			}
			want = total
		} else if total != want {
			t.Errorf("%d workers: total %+v, 1 worker: %+v", workers, total, want)
		}
	}
}

// TestRunOrderedUnwinds: a cancelled run stops consuming and returns
// ctx.Err(), and a panicking consumer propagates its panic; either way
// every worker and the dispatcher have exited.
func TestRunOrderedUnwinds(t *testing.T) {
	task := func(_ int, _ *Space, send func(int) bool) {
		for j := 0; j < 1000 && send(j); j++ {
		}
	}
	waitNoLeak := func(before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines leaked: %d before the run, %d after", before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	consumed := 0
	_, err := RunOrdered(ctx, shardCfg(), make([]Word, 16), 16, task, 4, 1, func(int, int) {
		consumed++
		cancel()
	})
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want %v", err, context.Canceled)
	}
	// The consumer cancelled at its first output and takes no other.
	if consumed != 1 {
		t.Errorf("consumer saw %d outputs after cancelling at the first", consumed)
	}
	waitNoLeak(before)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("consumer panic did not propagate")
			}
		}()
		RunOrdered(nil, shardCfg(), make([]Word, 16), 16, task, 4, 1, func(int, int) { panic("consumer failure") })
	}()
	waitNoLeak(before)
}

// TestRunOrderedHoldsNoStatePerTask: a run of 2^20 tasks — the size of a
// Section 6 color-tuple plan — keeps only its dispatch window live. Half
// way through, the live heap is within a few MiB of where it started,
// where one output stream per task, made up front, would hold over
// 100 MiB.
func TestRunOrderedHoldsNoStatePerTask(t *testing.T) {
	const n = 1 << 20
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var mid uint64
	next := 0
	_, err := RunOrdered(nil, Config{M: 1 << 8, B: 1 << 4, Native: true}, nil, n, func(i int, _ *Space, send func(int) bool) {
		send(i)
	}, 2, 1, func(task, out int) {
		if task != next || out != task {
			t.Fatalf("task %d delivered %d, want task %d", task, out, next)
		}
		next++
		if task == n/2 {
			mid = heap()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("consumed %d tasks, want %d", next, n)
	}
	if mid > before+16<<20 {
		t.Errorf("live heap grew from %d to %d bytes half way through %d tasks", before, mid, n)
	}
}
