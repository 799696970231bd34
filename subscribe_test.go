package repro

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// tupleSet keys normalized tuples for set diffs.
type tupleSet map[string][]uint32

func (s tupleSet) insert(vs []uint32) { s[fmt.Sprint(vs)] = append([]uint32(nil), vs...) }

// minus returns s - o as a lexicographically sorted list, shaped like
// ChangeSet.Added/Removed (empty, not nil, when nothing changed).
func (s tupleSet) minus(o tupleSet) [][]uint32 {
	out := [][]uint32{}
	for k, v := range s {
		if _, ok := o[k]; !ok {
			out = append(out, v)
		}
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// subKind couples a subscription constructor with the fresh-enumeration
// oracle of the same family, both normalized identically.
type subKind struct {
	name      string
	subscribe func(g *Graph, q Query) (*Subscription, error)
	enumerate func(t *testing.T, g *Graph) tupleSet
}

func subKinds() []subKind {
	return []subKind{
		{
			name: "triangles",
			subscribe: func(g *Graph, q Query) (*Subscription, error) {
				return g.Subscribe(nil, q)
			},
			enumerate: func(t *testing.T, g *Graph) tupleSet {
				t.Helper()
				set := tupleSet{}
				if _, err := g.TrianglesFunc(nil, Query{}, func(a, b, c uint32) {
					set.insert([]uint32{a, b, c})
				}); err != nil {
					t.Fatal(err)
				}
				return set
			},
		},
		{
			name: "cliques4",
			subscribe: func(g *Graph, q Query) (*Subscription, error) {
				return g.SubscribeCliques(nil, 4, q)
			},
			enumerate: func(t *testing.T, g *Graph) tupleSet {
				t.Helper()
				set := tupleSet{}
				if _, err := g.CliquesFunc(nil, 4, Query{}, func(c []uint32) {
					set.insert(c)
				}); err != nil {
					t.Fatal(err)
				}
				return set
			},
		},
		{
			name: "diamond",
			subscribe: func(g *Graph, q Query) (*Subscription, error) {
				return g.SubscribeMatch(nil, PatternDiamond, q)
			},
			enumerate: func(t *testing.T, g *Graph) tupleSet {
				t.Helper()
				set := tupleSet{}
				buf := make([]uint32, PatternDiamond.K())
				if _, err := g.MatchFunc(nil, PatternDiamond, Query{}, func(assign []uint32) {
					copy(buf, assign)
					// Representatives depend on the generation's internal
					// order; normalize before comparing across graphs.
					PatternDiamond.Normalize(buf)
					set.insert(buf)
				}); err != nil {
					t.Fatal(err)
				}
				return set
			},
		},
	}
}

// TestSubscribeMatchesFreshDiff is the tentpole determinism contract:
// for an update sequence, the accumulated subscription stream equals
// the diff of fresh enumerations of consecutive generations — and the
// delivered ChangeSets (emissions AND I/O statistics) are byte-identical
// at Workers 1 and 4, memory- and disk-backed.
func TestSubscribeMatchesFreshDiff(t *testing.T) {
	edges, err := Generate("gnm:n=150,m=900", 13)
	if err != nil {
		t.Fatal(err)
	}
	deltas := updateScenario(edges)
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}

	// Model edge set at each generation, and one fresh handle per
	// generation for the enumeration oracle.
	models := []edgeSet{newEdgeSet(edges)}
	for _, d := range deltas {
		next := cloneSet(models[len(models)-1])
		next.apply(d)
		models = append(models, next)
	}
	fresh := make([]*Graph, len(models))
	for i, m := range models {
		fresh[i], err = Build(FromEdges(m.slice()), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh[i].Close()
	}

	for _, kind := range subKinds() {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			enums := make([]tupleSet, len(models))
			for i := range models {
				enums[i] = kind.enumerate(t, fresh[i])
			}

			// One stream of ChangeSets per (backend, workers) variant; all
			// four must be byte-identical, and equal to the oracle diff.
			var reference []ChangeSet
			for _, disk := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("disk=%v/workers=%d", disk, workers)
					vopts := opts
					if disk {
						vopts.DiskPath = t.TempDir() + "/sub.img"
					}
					g, err := Build(FromEdges(edges), vopts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sub, err := kind.subscribe(g, Query{Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if sub.Generation() != 0 {
						t.Fatalf("%s: registered on generation %d, want 0", label, sub.Generation())
					}
					var stream []ChangeSet
					for i, d := range deltas {
						res, err := g.Update(nil, d)
						if err != nil {
							t.Fatalf("%s: update %d: %v", label, i, err)
						}
						cs := <-sub.Changes()
						if cs.Generation != res.Generation {
							t.Fatalf("%s: delivery for generation %d after installing %d", label, cs.Generation, res.Generation)
						}
						if cs.Vertices != res.Vertices || cs.Edges != res.Edges {
							t.Fatalf("%s: ChangeSet describes %d/%d, update reported %d/%d",
								label, cs.Vertices, cs.Edges, res.Vertices, res.Edges)
						}
						if cs.Stats.BlockReads == 0 {
							t.Fatalf("%s: generation %d: differential pass reports zero block reads", label, cs.Generation)
						}
						stream = append(stream, cs)
					}
					if err := g.Close(); err != nil {
						t.Fatalf("%s: close: %v", label, err)
					}

					for i, cs := range stream {
						wantAdded := enums[i+1].minus(enums[i])
						wantRemoved := enums[i].minus(enums[i+1])
						if !reflect.DeepEqual(cs.Added, wantAdded) {
							t.Fatalf("%s: generation %d Added:\n got %v\nwant %v", label, cs.Generation, cs.Added, wantAdded)
						}
						if !reflect.DeepEqual(cs.Removed, wantRemoved) {
							t.Fatalf("%s: generation %d Removed:\n got %v\nwant %v", label, cs.Generation, cs.Removed, wantRemoved)
						}
					}
					if reference == nil {
						reference = stream
					} else if !reflect.DeepEqual(stream, reference) {
						t.Fatalf("%s: stream differs from first variant:\n got %+v\nwant %+v", label, stream, reference)
					}
				}
			}
		})
	}
}

// TestSubscriptionGraphClose pins the drain contract: Close on the
// handle ends live subscriptions with ErrGraphClosed, but ChangeSets
// already queued are still delivered before the channel closes.
func TestSubscriptionGraphClose(t *testing.T) {
	edges, err := Generate("gnm:n=60,m=240", 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := g.Subscribe(nil, Query{})
	if err != nil {
		t.Fatal(err)
	}
	// Two effective updates, unconsumed, then Close.
	for i := uint32(0); i < 2; i++ {
		if _, err := g.Update(nil, Delta{Add: []Edge{{1000 + 3*i, 1001 + 3*i}, {1001 + 3*i, 1002 + 3*i}, {1000 + 3*i, 1002 + 3*i}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	for cs := range sub.Changes() {
		gens = append(gens, cs.Generation)
	}
	if !reflect.DeepEqual(gens, []uint64{1, 2}) {
		t.Fatalf("drained generations %v, want [1 2]", gens)
	}
	if !errors.Is(sub.Err(), ErrGraphClosed) {
		t.Fatalf("Err() = %v, want ErrGraphClosed", sub.Err())
	}
	// New subscriptions after Close fail fast.
	if _, err := g.Subscribe(nil, Query{}); !errors.Is(err, ErrGraphClosed) {
		t.Fatalf("Subscribe on closed handle: %v", err)
	}
}

// TestSubscriptionCloseAndCancel covers the caller-initiated endings:
// Subscription.Close discards undelivered changes and reports a nil Err;
// context cancellation closes the stream with the context's error.
func TestSubscriptionCloseAndCancel(t *testing.T) {
	edges, err := Generate("gnm:n=60,m=240", 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sub, err := g.Subscribe(nil, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, ok := <-sub.Changes(); ok {
		t.Fatal("Changes delivered after Close")
	}
	if sub.Err() != nil {
		t.Fatalf("Err() after plain Close = %v", sub.Err())
	}
	// A closed subscription no longer receives deliveries.
	if _, err := g.Update(nil, Delta{Add: []Edge{{900, 901}}}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sub2, err := g.Subscribe(ctx, Query{})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for range sub2.Changes() {
	}
	if !errors.Is(sub2.Err(), context.Canceled) {
		t.Fatalf("Err() after cancel = %v", sub2.Err())
	}
}

// TestSubscribeMidUpdateAtomicity races registrations against a stream
// of effective updates: whatever generation a subscription reports
// having registered on, its deliveries must start exactly one past it
// and stay consecutive — a transition is observed fully or not at all.
func TestSubscribeMidUpdateAtomicity(t *testing.T) {
	edges, err := Generate("gnm:n=60,m=240", 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const updates = 10
	start := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-start
		for i := 0; i < updates; i++ {
			e := Edge{2000 + uint32(i), 2001 + uint32(i)}
			var d Delta
			if i%2 == 0 {
				d.Add = []Edge{e}
			} else {
				d.Remove = []Edge{{2000 + uint32(i-1), 2001 + uint32(i-1)}}
			}
			if _, err := g.Update(nil, d); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sub, err := g.Subscribe(nil, Query{})
				if err != nil {
					t.Error(err)
					return
				}
				base := sub.Generation()
				<-done // all deliveries for this subscription are queued now
				for expect := base + 1; expect <= updates; expect++ {
					cs, ok := <-sub.Changes()
					if !ok {
						t.Errorf("registered on %d, stream ended before generation %d", base, expect)
						return
					}
					if cs.Generation != expect {
						t.Errorf("registered on %d, received generation %d, want %d", base, cs.Generation, expect)
						sub.Close()
						return
					}
				}
				sub.Close()
				if base == updates {
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestSubscriptionWALCutResume is the recovery edge: cut the WAL at a
// record boundary, reopen, and a subscription registered on the
// recovered handle resumes exactly from the recovered generation — its
// next delivery is recovered+1 and matches the fresh-enumeration diff.
func TestSubscriptionWALCutResume(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	img, wal, models := crashScenario(t, opts)
	ends := walRecordEnds(t, wal)

	ro, or, _ := openCrashCopy(t, img, wal[:ends[0]], opts)
	defer ro.Close()
	if or.Generation != 1 {
		t.Fatalf("recovered to generation %d, want 1", or.Generation)
	}
	sub, err := ro.Subscribe(nil, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Generation() != or.Generation {
		t.Fatalf("subscription registered on %d, want recovered generation %d", sub.Generation(), or.Generation)
	}

	d := Delta{Add: []Edge{{3000, 3001}, {3001, 3002}, {3000, 3002}, {0, 3000}}}
	res, err := ro.Update(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != or.Generation+1 {
		t.Fatalf("update installed %d, want %d", res.Generation, or.Generation+1)
	}
	cs := <-sub.Changes()
	if cs.Generation != res.Generation {
		t.Fatalf("delivery carries generation %d, want %d", cs.Generation, res.Generation)
	}

	kind := subKinds()[0] // triangles
	before, err := Build(FromEdges(models[1].slice()), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	next := cloneSet(models[1])
	next.apply(d)
	after, err := Build(FromEdges(next.slice()), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	eb, ea := kind.enumerate(t, before), kind.enumerate(t, after)
	if !reflect.DeepEqual(cs.Added, ea.minus(eb)) || !reflect.DeepEqual(cs.Removed, eb.minus(ea)) {
		t.Fatalf("resumed delivery diverges from fresh diff:\n got +%v -%v\nwant +%v -%v",
			cs.Added, cs.Removed, ea.minus(eb), eb.minus(ea))
	}
}
