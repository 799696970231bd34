package trienum

import (
	"context"
	"errors"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// TestSequentialCtxCancellation mirrors TestParallelCtxCancellation for
// the sequential baselines of this package: cancelling the context from
// inside emit stops the run at its next pass boundary — the emitted prefix
// is shorter than the full stream — and returns context.Canceled; a
// pre-cancelled context never starts the run; and the Space is reusable
// after a cancelled run.
func TestSequentialCtxCancellation(t *testing.T) {
	el := graph.Clique(60) // 34220 triangles across many passes/chunks
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)

	engines := map[string]func(ctx context.Context, emit graph.Emit) error{
		"hutaochung": func(ctx context.Context, emit graph.Emit) error {
			_, err := HuTaoChung(ctx, sp, g, emit)
			return err
		},
		"sortmerge": func(ctx context.Context, emit graph.Emit) error {
			_, err := Dementiev(ctx, sp, g, emit)
			return err
		},
	}
	for name, run := range engines {
		var full uint64
		if err := run(nil, graph.Counter(&full)); err != nil {
			t.Fatalf("%s: full run: %v", name, err)
		}
		if full == 0 {
			t.Fatalf("%s: degenerate full run", name)
		}

		ctx, cancel := context.WithCancel(context.Background())
		var seen uint64
		err := run(ctx, func(_, _, _ uint32) {
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

		// Pre-cancelled contexts never start the run.
		var n uint64
		if err := run(ctx, graph.Counter(&n)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled run returned %v", name, err)
		}
		if n != 0 {
			t.Errorf("%s: pre-cancelled run emitted %d triangles", name, n)
		}

		// The Space is reusable after a cancelled run.
		var again uint64
		if err := run(nil, graph.Counter(&again)); err != nil {
			t.Fatalf("%s: run after cancellation: %v", name, err)
		}
		if again != full {
			t.Errorf("%s: run after cancellation found %d triangles, want %d", name, again, full)
		}
	}
}
