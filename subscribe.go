package repro

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/diff"
	"repro/internal/extmem"
	"repro/internal/graph"
)

// ChangeSet is one differential delivery of a standing query: exactly
// the matches an effective Update created and destroyed, computed by the
// delta-anchored kernel (internal/diff) against the two generations'
// frozen images — never by re-enumeration.
//
// Added and Removed carry the changed matches in the caller's vertex
// ids: k-clique subscriptions list each clique's members ascending;
// pattern subscriptions list position-to-vertex assignments normalized
// to the lexicographically least member of their Aut(H) orbit (see
// Pattern.Normalize — the same normalization makes embeddings from
// different generations comparable). Each list is sorted
// lexicographically, so the whole ChangeSet is a pure function of the
// two edge sets and the query: byte-identical at every Workers value,
// memory- and disk-backed.
//
// Stats is the exact block-I/O cost of the differential computation for
// this subscription — the closure scans over the two images — and is
// likewise deterministic and invariant in Workers (zero for native
// subscriptions, whose accounting is compiled out). The generation-over-
// generation accumulation contract is pinned by tests: concatenating a
// subscription's ChangeSets reproduces the diff of fresh enumerations
// of any two of its generations.
type ChangeSet struct {
	// Generation is the generation the update installed; the changes
	// transform the previous generation's matches into this one's.
	Generation uint64
	// Added and Removed are the created and destroyed matches.
	Added   [][]uint32
	Removed [][]uint32
	// Vertices and Edges describe the graph as of Generation.
	Vertices int
	Edges    int64
	// Stats is the differential enumeration cost (both passes).
	Stats IOStats
}

// Subscription is a standing query registered on a Graph handle with
// Subscribe, SubscribeCliques, or SubscribeMatch. After every effective
// Update the handle runs the differential kernel and delivers one
// ChangeSet on Changes, in update order. The channel closes when the
// subscription ends — Close on the subscription, cancellation of its
// context, Close on the Graph (which first lets the already-queued
// ChangeSets drain), or a kernel failure — after which Err reports why.
type Subscription struct {
	g       *Graph
	id      uint64
	gen     uint64
	spec    diff.Spec
	pat     *Pattern
	workers int
	native  bool

	mu     sync.Mutex
	cond   sync.Cond
	queue  []ChangeSet
	err    error
	closed bool

	ch      chan ChangeSet
	done    chan struct{} // closed once: no further ChangeSets will be queued
	dropped chan struct{} // closed when pending deliveries are discarded
}

// Subscribe registers a standing triangle query: after each effective
// Update the subscription receives the triangles the delta created and
// destroyed, as a ChangeSet of ascending id triples. Query.Workers
// bounds the differential kernel's parallelism exactly as in Triangles
// (0 = inherit the handle's Options.Workers); emissions and Stats are
// invariant in it. Query.Mode selects the execution mode as in Triangles,
// captured once at registration: a native subscription's ChangeSets carry
// the same Added/Removed tuples with a zero Stats. Query.Algorithm, Seed,
// Limit, From and Result do not apply to subscriptions and are ignored.
//
// ctx bounds the subscription's lifetime: when it is cancelled the
// subscription closes and Err reports ctx.Err(). ctx may be nil. The
// registration is atomic against concurrent updates: the subscription
// observes every generation transition after the Generation it reports,
// each fully or not at all.
func (g *Graph) Subscribe(ctx context.Context, q Query) (*Subscription, error) {
	return g.subscribe(ctx, diff.Spec{K: 3}, nil, q)
}

// SubscribeCliques is Subscribe for k-cliques, k >= 3.
func (g *Graph) SubscribeCliques(ctx context.Context, k int, q Query) (*Subscription, error) {
	if k < 3 {
		return nil, fmt.Errorf("repro: clique size %d out of range (need k >= 3)", k)
	}
	return g.subscribe(ctx, diff.Spec{K: k}, nil, q)
}

// SubscribeMatch is Subscribe for embeddings of a pattern, delivered as
// Aut(H)-normalized assignments (see Pattern.Normalize).
func (g *Graph) SubscribeMatch(ctx context.Context, p *Pattern, q Query) (*Subscription, error) {
	if p == nil || p.p == nil {
		return nil, fmt.Errorf("repro: SubscribeMatch requires a non-nil pattern")
	}
	return g.subscribe(ctx, diff.Spec{Pattern: p.p}, p, q)
}

func (g *Graph) subscribe(ctx context.Context, spec diff.Spec, pat *Pattern, q Query) (*Subscription, error) {
	workers := g.resolveWorkers(q)
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrGraphClosed
	}
	g.subSeq++
	s := &Subscription{
		g:       g,
		id:      g.subSeq,
		gen:     g.cur.meta.Generation,
		spec:    spec,
		pat:     pat,
		workers: workers,
		native:  q.Mode == ModeNative,
		ch:      make(chan ChangeSet),
		done:    make(chan struct{}),
		dropped: make(chan struct{}),
	}
	s.cond.L = &s.mu
	if g.subs == nil {
		g.subs = make(map[uint64]*Subscription)
	}
	g.subs[s.id] = s
	g.mu.Unlock()

	go s.pump()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				g.unsubscribe(s.id)
				s.finish(ctx.Err(), true)
			case <-s.done:
			}
		}()
	}
	return s, nil
}

// Changes is the subscription's delivery channel: one ChangeSet per
// effective Update, in update order. The receiver paces delivery — a
// slow consumer queues ChangeSets inside the subscription but never
// blocks Update. The channel closes when the subscription ends; consult
// Err then.
func (s *Subscription) Changes() <-chan ChangeSet { return s.ch }

// Generation is the generation the subscription was registered on: the
// first delivered ChangeSet (if any update follows) carries
// Generation()+1, and consecutive deliveries consecutive numbers.
func (s *Subscription) Generation() uint64 { return s.gen }

// Err reports why the subscription ended: nil after a plain Close,
// ErrGraphClosed after the handle was closed, the context's error after
// cancellation, or the kernel failure that tore it down. It is
// meaningful once Changes is closed.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close unregisters the subscription and discards undelivered
// ChangeSets; Changes closes promptly (a delivery already blocked in a
// channel send may still land). Closing twice is a no-op. Close never
// blocks on the Graph's queries or updates.
func (s *Subscription) Close() error {
	s.g.unsubscribe(s.id)
	s.finish(nil, true)
	return nil
}

// finish ends the subscription: err is recorded for Err, and drop
// selects whether queued ChangeSets are discarded (Subscription.Close,
// context cancellation) or drained to the consumer first (Graph.Close,
// kernel failure). Safe to call multiple times; only the first wins.
func (s *Subscription) finish(err error, drop bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	if drop {
		s.queue = nil
		close(s.dropped)
	}
	close(s.done)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// enqueue hands a ChangeSet to the pump. Deliveries racing a concurrent
// finish are dropped — the subscription already ended.
func (s *Subscription) enqueue(cs ChangeSet) {
	s.mu.Lock()
	if !s.closed {
		s.queue = append(s.queue, cs)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// pump is the delivery goroutine: it moves queued ChangeSets onto the
// exposed channel (the consumer's pace is the only backpressure) and
// closes the channel when the queue is drained after finish, or
// immediately when the subscription was dropped.
func (s *Subscription) pump() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			close(s.ch)
			return
		}
		cs := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		select {
		case s.ch <- cs:
		case <-s.dropped:
			close(s.ch)
			return
		}
	}
}

func (g *Graph) unsubscribe(id uint64) {
	g.mu.Lock()
	delete(g.subs, id)
	g.mu.Unlock()
}

// snapshotSubsLocked returns the live subscriptions in registration
// order. Caller holds g.mu — the atomicity of subscription registration
// against updates comes from snapshotting in the same critical section
// that installs the new generation.
func (g *Graph) snapshotSubsLocked() []*Subscription {
	if len(g.subs) == 0 {
		return nil
	}
	subs := make([]*Subscription, 0, len(g.subs))
	for _, s := range g.subs {
		subs = append(subs, s)
	}
	slices.SortFunc(subs, func(a, b *Subscription) int { return cmp.Compare(a.id, b.id) })
	return subs
}

// deliverDiff runs the differential kernel once per subscription for the
// transition old -> ng and queues the resulting ChangeSets. It runs
// synchronously inside the installing update (old is still pinned, ng is
// current and cannot be superseded while updateMu is held), so
// deliveries across updates are ordered by generation. A kernel failure
// tears the affected subscription down with the error; the others — and
// the update itself — are unaffected.
func (g *Graph) deliverDiff(subs []*Subscription, old, ng *generation, addedIDs, removedIDs []extmem.Word) {
	for _, s := range subs {
		cs, err := g.diffOnce(s, old, ng, addedIDs, removedIDs)
		if err != nil {
			g.unsubscribe(s.id)
			s.finish(err, false)
			continue
		}
		s.enqueue(cs)
	}
}

// diffOnce computes one subscription's ChangeSet for old -> ng: the
// removed pass runs against the old generation's image anchored on the
// effective removed edges, the added pass against the new image anchored
// on the effective added edges. Each pass runs on its own session Space,
// so Stats is exact and isolated like any query's.
func (g *Graph) diffOnce(s *Subscription, old, ng *generation, addedIDs, removedIDs []extmem.Word) (ChangeSet, error) {
	removed, remStats, err := g.diffPass(s, old, removedIDs)
	if err != nil {
		return ChangeSet{}, err
	}
	added, addStats, err := g.diffPass(s, ng, addedIDs)
	if err != nil {
		return ChangeSet{}, err
	}
	remStats.Add(addStats)
	return ChangeSet{
		Generation: ng.meta.Generation,
		Added:      added,
		Removed:    removed,
		Vertices:   int(ng.meta.NumVertices),
		Edges:      ng.meta.EdgesLen,
		Stats:      toIOStats(remStats),
	}, nil
}

// diffPass runs the kernel once against gen's image, anchored on the
// id-space delta edges, and returns the changed matches in id space,
// normalized and sorted lexicographically.
func (g *Graph) diffPass(s *Subscription, gen *generation, deltaIDs []extmem.Word) ([][]uint32, extmem.Stats, error) {
	out := [][]uint32{}
	if len(deltaIDs) == 0 {
		return out, extmem.Stats{}, nil
	}
	// The kernel never allocates external scratch (its closure state is
	// leased internal memory), so the session needs no scratch file even
	// on disk-backed handles.
	sp, err := gen.open(g.opts, s.native, "")
	if err != nil {
		return nil, extmem.Stats{}, err
	}
	defer sp.Close()

	idToRank := make(map[uint32]uint32, len(gen.rankToID))
	for r, id := range gen.rankToID {
		idToRank[id] = uint32(r)
	}
	anchors := make([]extmem.Word, 0, len(deltaIDs))
	for _, e := range deltaIDs {
		u, okU := idToRank[graph.U(e)]
		v, okV := idToRank[graph.V(e)]
		if !okU || !okV {
			return nil, extmem.Stats{}, fmt.Errorf("repro: internal: delta edge {%d, %d} unknown to generation %d",
				graph.U(e), graph.V(e), gen.meta.Generation)
		}
		anchors = append(anchors, graph.Pack(u, v))
	}

	_, err = diff.Enumerate(nil, sp, gen.canonical(sp), anchors, s.spec, s.workers, func(rverts []uint32) {
		ids := make([]uint32, len(rverts))
		for i, r := range rverts {
			ids[i] = gen.rankToID[r]
		}
		if s.pat != nil {
			// Rank-space orbit representatives differ across generations;
			// the id-space normalization is generation-independent.
			s.pat.p.Minimize(ids)
		} else {
			slices.Sort(ids)
		}
		out = append(out, ids)
	})
	if err != nil {
		return nil, sp.Stats(), err
	}
	sp.Flush()
	slices.SortFunc(out, slices.Compare)
	return out, sp.Stats(), nil
}
