package trienum

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// TestParallelCtxCancellation: cancelling the exec context from inside
// emit stops every engine early — the emitted prefix is shorter
// than the full stream — returns context.Canceled, and drains the worker
// pool without leaks. A subsequent run on the same Space reproduces the
// full stream, i.e. a cancelled run leaves no residue.
func TestParallelCtxCancellation(t *testing.T) {
	el := graph.Clique(60) // 34220 triangles: many merge batches in flight
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)

	var full uint64
	if _, _, err := CacheAwareParallel(sp, g, 5, Exec{Workers: 4}, graph.Counter(&full)); err != nil {
		t.Fatal(err)
	}

	engines := map[string]func(exec Exec, emit graph.Emit) error{
		"cacheaware": func(exec Exec, emit graph.Emit) error {
			_, _, err := CacheAwareParallel(sp, g, 5, exec, emit)
			return err
		},
		"deterministic": func(exec Exec, emit graph.Emit) error {
			_, _, err := DeterministicParallel(sp, g, exec, emit)
			return err
		},
		"oblivious": func(exec Exec, emit graph.Emit) error {
			_, _, err := ObliviousParallel(sp, g, 5, exec, emit)
			return err
		},
	}
	for name, run := range engines {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var seen uint64
		err := run(Exec{Workers: 4, Ctx: ctx}, func(_, _, _ uint32) {
			seen++
			if seen == 50 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled run returned %v, want context.Canceled", name, err)
		}
		if seen == 0 || seen >= full {
			t.Errorf("%s: cancelled run emitted %d of %d — not an early stop", name, seen, full)
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && runtime.NumGoroutine() > before+1 {
			time.Sleep(10 * time.Millisecond)
		}
		if ng := runtime.NumGoroutine(); ng > before+1 {
			t.Errorf("%s: goroutines leaked: %d before, %d after", name, before, ng)
		}

		// Pre-cancelled contexts never start the run.
		var n uint64
		if err := run(Exec{Workers: 2, Ctx: ctx}, graph.Counter(&n)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled run returned %v", name, err)
		}
		if n != 0 {
			t.Errorf("%s: pre-cancelled run emitted %d triangles", name, n)
		}

		// The Space is reusable after a cancelled run.
		var again uint64
		if _, _, err := CacheAwareParallel(sp, g, 5, Exec{Workers: 4}, graph.Counter(&again)); err != nil {
			t.Fatalf("%s: run after cancellation: %v", name, err)
		}
		if again != full {
			t.Errorf("%s: run after cancellation found %d triangles, want %d", name, again, full)
		}
	}
}
