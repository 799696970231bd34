package baseline

import (
	"context"
	"errors"
	"testing"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// TestBaselineCtxCancellation mirrors trienum's cancellation suites for
// the Section 1.1 baselines: cancelling from inside emit stops the run
// at its next chunk/scan boundary with a strict prefix emitted and
// context.Canceled returned; a pre-cancelled context never starts the
// run; the Space is reusable afterwards.
func TestBaselineCtxCancellation(t *testing.T) {
	el := graph.Clique(60)
	cfg := extmem.Config{M: 1 << 8, B: 1 << 4}
	sp := extmem.NewSpace(cfg)
	g := graph.CanonicalizeList(sp, el)

	engines := map[string]func(ctx context.Context, emit graph.Emit) error{
		"nestedloop": func(ctx context.Context, emit graph.Emit) error {
			_, err := BlockNestedLoop(ctx, sp, g, emit)
			return err
		},
		"edgeiterator": func(ctx context.Context, emit graph.Emit) error {
			_, err := EdgeIterator(ctx, sp, g, emit)
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

		var n uint64
		if err := run(ctx, graph.Counter(&n)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled run returned %v", name, err)
		}
		if n != 0 {
			t.Errorf("%s: pre-cancelled run emitted %d triangles", name, n)
		}

		var again uint64
		if err := run(nil, graph.Counter(&again)); err != nil {
			t.Fatalf("%s: run after cancellation: %v", name, err)
		}
		if again != full {
			t.Errorf("%s: run after cancellation found %d triangles, want %d", name, again, full)
		}
	}
}
