package emsort

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/extmem"
)

// TestParallelSortCtxPreCancelled: an already-cancelled context stops the
// sort before any work (and before any fallback runs), returning the
// context's error.
func TestParallelSortCtxPreCancelled(t *testing.T) {
	sp := extmem.NewSpace(extmem.Config{M: 1 << 10, B: 1 << 5})
	ext := sp.Alloc(1 << 12)
	for i := int64(0); i < ext.Len(); i++ {
		ext.Write(i, extmem.Word(ext.Len()-i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ParallelSortRecordsCtx(ctx, ext, 1, Identity, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled context returned %v, want context.Canceled", err)
	}
	// First element still unsorted: no partial fallback ran.
	if ext.Read(0) == 1 {
		t.Error("pre-cancelled sort modified the extent into sorted order")
	}
}

// TestParallelSortCtxMidRunCancel: a cancellation racing the sort (fired
// from inside the key function once the engine is demonstrably mid-run)
// drains the worker pool — no goroutine outlives the call — and either
// surfaces context.Canceled or, if the engine already passed its last
// check, completes with a correctly sorted extent. Both outcomes are
// legal for cooperative cancellation; leaking workers or returning a
// half-sorted extent without an error is not.
func TestParallelSortCtxMidRunCancel(t *testing.T) {
	sp := extmem.NewSpace(extmem.Config{M: 1 << 12, B: 1 << 5})
	n := int64(1 << 15)
	ext := sp.Alloc(n)
	for i := int64(0); i < n; i++ {
		ext.Write(i, extmem.Word((i*2654435761)%uint32max))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var keyed atomic.Int64
	key := func(w extmem.Word) uint64 {
		if keyed.Add(1) == 3*n/2 {
			cancel()
		}
		return uint64(w)
	}
	before := runtime.NumGoroutine()
	_, err := ParallelSortRecordsCtx(ctx, ext, 1, key, 4)
	switch {
	case err == nil:
		for i := int64(1); i < n; i++ {
			if ext.Read(i-1) > ext.Read(i) {
				t.Fatalf("completed without error but element %d is out of order", i)
			}
		}
	case errors.Is(err, context.Canceled):
		// Expected: cancelled mid-run.
	default:
		t.Fatalf("unexpected error %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

const uint32max = 1 << 32
