package extmem

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/ctxutil"
)

// This file provides the pieces of the parallel execution engine that
// belong to the memory model: snapshots of external memory and worker
// shards. A coordinating Space lays out some region (say, the color-sorted
// edge array), takes a Snapshot of it, and hands the snapshot to N worker
// shards created with NewShardSpace. Each shard is a full Space — its own
// block cache of M words, its own Stats, its own scratch allocator — whose
// external memory begins with the shared read-only region. The model this
// simulates is P processors with private internal memories of M words over
// a shared disk (the PEM model of Arge et al.); because every shard is
// charged its own block transfers against its own M-word cache, per-shard
// counts are exact and their sum is independent of how tasks are scheduled
// across shards. RunOrdered is the worker pool built on these pieces; the
// parallel sorts (emsort) and the parallel triangle engine (trienum) both
// run their independent units through it.

// Snapshot returns the contents of the whole blocks covering ext as a
// native slice. Dirty cached blocks overlapping the extent are written
// back first and the write-backs are counted as usual — the sequential
// algorithm pays the same writes at eviction or Flush time. The extent's
// base must be block-aligned (any Alloc result is). The snapshot itself is
// free: it is the external-memory image handed to worker shards, not a
// transfer into internal memory; shards are charged block reads when they
// fetch from it.
func (s *Space) Snapshot(ext Extent) []Word {
	if ext.sp != s {
		panic("extmem: Snapshot of an extent from another Space")
	}
	if ext.n == 0 {
		return nil
	}
	if ext.base&int64(s.cfg.B-1) != 0 {
		panic(fmt.Sprintf("extmem: Snapshot extent base %d is not block-aligned", ext.base))
	}
	first := ext.base >> s.logB
	last := (ext.base + ext.n - 1) >> s.logB
	out := make([]Word, (last-first+1)<<s.logB)
	if s.native {
		// Straight word copy from the native address space; the tail of
		// the last block past the allocation watermark reads as zero.
		start := first << s.logB
		end := (last + 1) << s.logB
		if end > s.size {
			end = s.size
		}
		if start < s.natBase {
			hi := end
			if hi > s.natBase {
				hi = s.natBase
			}
			copy(out, s.natCore[start:hi])
		}
		if end > s.natBase {
			lo := start
			if lo < s.natBase {
				lo = s.natBase
			}
			copy(out[lo-start:], s.natScratch[lo-s.natBase:end-s.natBase])
		}
		return out
	}
	for b := first; b <= last; b++ {
		dst := out[(b-first)<<s.logB : (b-first+1)<<s.logB]
		if f, ok := s.table[b]; ok {
			if s.frames[f].dirty {
				s.writeBack(b, f)
				s.frames[f].dirty = false
			}
			copy(dst, s.data[int64(f)<<s.logB:(int64(f)+1)<<s.logB])
			continue
		}
		if _, virgin := s.virgin[b]; virgin {
			continue // never materialized: reads as zero
		}
		if err := s.backend.ReadBlock(b, dst); err != nil {
			panic(fmt.Sprintf("extmem: snapshot read block %d: %v", b, err))
		}
	}
	return out
}

// NewShardSpace creates a worker-private Space whose external memory
// begins with the given read-only shared region — addresses
// [0, len(shared)), which must be whole blocks, as returned by Snapshot —
// and continues with private scratch space served from process memory.
// The shard has its own cfg.M-word block cache and its own Stats; writing
// into the shared region is a logic error that panics at write-back time.
// It is the worker-level special case of NewSessionSpace (session.go),
// which layers the same machinery under whole queries.
func NewShardSpace(cfg Config, shared []Word) *Space {
	sp, err := NewSessionSpace(cfg, WordsCore(shared), int64(len(shared)), "")
	if err != nil {
		panic(err)
	}
	return sp
}

// RunOrdered executes tasks 0, 1, …, n-1 on up to workers goroutines, each
// owning one shard Space over the shared region (NewShardSpace): task(i,
// shard, send) runs task i and hands its outputs, in the task's own order,
// to send, which reports false once the pool is unwinding — the task
// should then return. consume receives every task's outputs in task order
// on the calling goroutine. Between tasks a worker releases its scratch
// and drops its cache, so each task runs cold, exactly as on a fresh
// shard. It returns the per-worker stats.
//
// The pool streams: a task may run at most depth outputs ahead of the
// consumer before its send blocks, and tasks are dispatched at most
// 2·workers ahead of the task being consumed, so the pool holds
// O(workers · depth) outputs however large the result is. It holds no
// state per task beyond that window either — a task's output stream is
// made when the task is dispatched — so n may be as large as the caller's
// index space.
//
// When ctx is cancelled (a nil ctx never is), the consumer takes no
// further output, and none at all after a consume call that cancelled it;
// dispatch stops, in-flight tasks unwind at their next send, and the pool
// drains before RunOrdered returns ctx.Err() with the stats accumulated
// so far. A panicking consumer unwinds the pool the same way before the
// panic propagates: no goroutine outlives the call.
func RunOrdered[T any](ctx context.Context, cfg Config, shared []Word, n int, task func(i int, shard *Space, send func(T) bool), workers, depth int, consume func(task int, out T)) ([]Stats, error) {
	if n <= 0 {
		return nil, ctxutil.Err(ctx)
	}
	workers = min(max(workers, 1), n)
	type job struct {
		i      int
		stream chan T
	}
	jobs := make(chan job)
	// queued holds the output streams of the dispatched tasks not yet
	// being consumed, in task order; with the one being consumed, at most
	// 2·workers tasks are in flight.
	queued := make(chan chan T, 2*workers-1)
	// done is closed when the consumer stops — normally after the last
	// task, but also on cancellation or a consumer panic — so blocked
	// workers and the dispatcher always unwind instead of leaking.
	done := make(chan struct{})
	stats := make([]Stats, workers)
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := NewShardSpace(cfg, shared)
			base := shard.Mark()
			for j := range jobs {
				alive := true
				task(j.i, shard, func(out T) bool {
					if alive {
						select {
						case j.stream <- out:
						case <-done:
							alive = false
						}
					}
					return alive
				})
				close(j.stream)
				shard.Release(base)
				shard.DropCache()
			}
			stats[w] = shard.Stats()
		}()
	}
	go func() {
		defer close(jobs)
		for i := range n {
			stream := make(chan T, depth)
			select {
			case queued <- stream: // blocks while the consumer lags
			case <-done:
				return
			}
			select {
			case jobs <- job{i, stream}:
			case <-done:
				return
			}
		}
	}()
	cancelled := ctxutil.Done(ctx)
	for i := range n {
		var stream chan T
		select {
		case stream = <-queued:
		case <-cancelled:
			return stats, ctx.Err()
		}
		for stream != nil {
			select {
			case out, ok := <-stream:
				if !ok {
					stream = nil
					continue
				}
				select {
				case <-cancelled: // also when consume itself cancelled
					return stats, ctx.Err()
				default:
				}
				consume(i, out)
			case <-cancelled:
				return stats, ctx.Err()
			}
		}
	}
	return stats, nil
}

// ExtentAt returns the extent [base, base+n) of already-allocated space.
// It is the bridge by which worker shards address the shared region laid
// out by the coordinating Space: the shard sees the snapshot at address 0.
func (s *Space) ExtentAt(base, n int64) Extent {
	if base < 0 || n < 0 || base+n > s.size {
		panic(fmt.Sprintf("extmem: ExtentAt [%d,%d) outside allocated space [0,%d)", base, base+n, s.size))
	}
	return Extent{sp: s, base: base, n: n}
}

// Absorb credits the I/O activity of worker shards to this Space's own
// counters, so callers that measure a parallel run through a single
// Space's Stats (rather than aggregating per-worker vectors themselves)
// still see the full cost.
func (s *Space) Absorb(st Stats) {
	s.stats.Add(st)
}

// AddStatsVec merges two per-worker stat vectors index-wise and returns
// the result (the longer input, mutated). Phases of a parallel run may
// engage different worker counts; merging index-wise keeps one entry per
// worker slot while the vector sum — the quantity the engine contracts to
// be identical at every worker count — is preserved.
func AddStatsVec(a, b []Stats) []Stats {
	if len(b) > len(a) {
		a, b = b, a
	}
	for i := range b {
		a[i].Add(b[i])
	}
	return a
}

// Add accumulates o into s: transfer and word counters add, peaks take the
// maximum (high-water marks of distinct machines do not stack). It is how
// per-shard stats aggregate into a run total whose counters equal the
// one-worker run's exactly.
func (s *Stats) Add(o Stats) {
	s.BlockReads += o.BlockReads
	s.BlockWrites += o.BlockWrites
	s.WordReads += o.WordReads
	s.WordWrites += o.WordWrites
	if o.PeakLease > s.PeakLease {
		s.PeakLease = o.PeakLease
	}
	if o.PeakAlloc > s.PeakAlloc {
		s.PeakAlloc = o.PeakAlloc
	}
}
