package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"repro"
	"repro/internal/cluster"
	"repro/internal/extmem"
	"repro/internal/trienum"
)

// Cluster roles of the daemon — the server side of the scatter–gather
// layer (see the cluster package doc for the design).
//
// A shard daemon (trienumd -shard) serves one sub-image and executes
// exactly the color tuples its manifest range owns: it solves each owned
// tuple in place with the family's own tuple solver, under the manifest
// coloring, on a cold machine of the manifest's size that holds just the
// tuple's color-pair buckets (runShardQuery). The collected emissions are
// sorted into the canonical order and streamed; the coordinator k-way
// merges the (disjoint, sorted) shard streams.
//
// The cluster endpoints are an operator-internal wire: they bypass
// tenant admission (the coordinator is the only intended client) but
// sit behind the daemon's bearer-token auth like every other route.

// shardState is the daemon's shard role.
type shardState struct {
	man   *cluster.Manifest
	index int
	g     *repro.Graph

	// mu orders queries against routed-update commits: a query holds the
	// read lock from reading the epoch through snapshotting the edge
	// set, a commit holds the write lock while applying its sub-delta
	// and advancing the epoch. A stream therefore runs entirely on one
	// (epoch, generation) pair — never a mix.
	mu       sync.RWMutex
	epoch    uint64
	staged   map[uint64]stagedDelta
	lastID   uint64
	lastResp cluster.ShardUpdateResponse
	last     stagedDelta // the sub-delta update lastID committed
}

// stagedDelta is a prepared-but-uncommitted sub-delta.
type stagedDelta struct {
	add    [][2]uint32
	remove [][2]uint32
}

// ServeShard configures the server's shard role: serve sub-image g as
// shard index of the manifest's cluster. Call before Handler; the
// server takes ownership of g (Close closes it). The shard's cluster
// epoch starts at 0 on every boot — it counts routed updates committed
// through this process, not a durable property of the image — so a
// restarted shard must be re-dialed by a fresh coordinator.
func (s *Server) ServeShard(man *cluster.Manifest, index int, g *repro.Graph) error {
	if err := man.Validate(); err != nil {
		return err
	}
	if index < 0 || index >= len(man.Shards) {
		return fmt.Errorf("serve: shard index %d out of range (manifest has %d shards)", index, len(man.Shards))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shard != nil {
		return errors.New("serve: shard role already configured")
	}
	s.shard = &shardState{man: man, index: index, g: g, staged: map[uint64]stagedDelta{}}
	return nil
}

// ServeCoordinator configures the server's coordinator role: expose the
// gathered query/update surface of an already-dialed cluster handle.
// Call before Handler; the server takes ownership (Close closes it).
func (s *Server) ServeCoordinator(cl *repro.Cluster) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coord != nil {
		return errors.New("serve: coordinator role already configured")
	}
	s.coord = cl
	return nil
}

// registerCluster mounts the routes of whichever cluster roles are
// configured.
func (s *Server) registerCluster(mux *http.ServeMux) {
	if s.shard != nil {
		mux.HandleFunc("GET /v1/cluster/shard/info", s.handleShardInfo)
		mux.HandleFunc("POST /v1/cluster/shard/query", s.handleShardQuery)
		mux.HandleFunc("POST /v1/cluster/shard/update", s.handleShardUpdate)
	}
	if s.coord != nil {
		mux.HandleFunc("GET /v1/cluster/info", s.handleClusterInfo)
		mux.HandleFunc("POST /v1/cluster/query", s.handleClusterQuery)
		mux.HandleFunc("POST /v1/cluster/update", s.handleClusterUpdate)
	}
}

func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	st := s.shard
	st.mu.RLock()
	epoch := st.epoch
	st.mu.RUnlock()
	sh := st.man.Shards[st.index]
	writeJSON(w, http.StatusOK, cluster.ShardInfoResponse{
		Index:       st.index,
		Lo:          sh.Lo,
		Hi:          sh.Hi,
		Colors:      st.man.Colors,
		Seed:        st.man.Seed,
		MemoryWords: st.man.MemoryWords,
		BlockWords:  st.man.BlockWords,
		Epoch:       epoch,
		Generation:  st.g.Generation(),
		Vertices:    st.g.NumVertices(),
		Edges:       st.g.NumEdges(),
	})
}

// runShardQuery executes the shard's share of one cluster query and
// returns its emissions sorted into the canonical order. The shard reads
// its edges once into C² native buckets, one per ordered color pair
// (ξ(min id), ξ(max id)), each sorted by the packed id pair. Each owned
// color tuple is then one task of trienum.RunTuples, the runner the
// engines share: it lays out the buckets of the tuple's colors on the
// pool's cold Space and runs the family's tuple solver on every distinct
// ordering of the tuple, and its result, its own Stats and error, is
// summed into the trailer in tuple order. Vertices are original ids, so
// a tuple's emissions and Stats are a pure function of (edge set,
// manifest, tuple, family), whatever the shard count, Workers value or
// backing store. Only the per-tuple work is charged. On an epoch
// mismatch the returned trailer carries the shard's epoch.
func runShardQuery(ctx context.Context, st *shardState, req cluster.ShardQueryRequest, f family) (flat []uint32, tr cluster.ShardQueryTrailer, err error) {
	C := st.man.Colors
	col := st.man.Coloring()
	buckets := make([][]extmem.Word, C*C)
	// Epoch read and edge snapshot under one read lock: the stream's
	// (epoch, generation) pair is consistent.
	st.mu.RLock()
	tr.Epoch = st.epoch // set first: the handler answers a mismatch with 409
	if req.Epoch != nil && *req.Epoch != tr.Epoch {
		st.mu.RUnlock()
		return nil, tr, fmt.Errorf("epoch mismatch: coordinator at %d, shard at %d", *req.Epoch, tr.Epoch)
	}
	snapErr := st.g.EdgesFunc(ctx, func(u, v uint32) {
		u, v = min(u, v), max(u, v)
		b := &buckets[col.Color(u)*uint32(C)+col.Color(v)]
		*b = append(*b, extmem.Word(u)<<32|extmem.Word(v))
	})
	tr.Vertices = st.g.NumVertices()
	tr.Edges = st.g.NumEdges()
	st.mu.RUnlock()
	if snapErr != nil {
		return nil, tr, snapErr
	}
	for _, b := range buckets {
		slices.Sort(b)
	}

	k := f.arity()
	var owned []int // the owned tuples, k colors each
	// The callback never fails, so neither does the enumeration.
	_ = st.man.OwnedTuples(st.index, k, func(t []uint32) error {
		for _, c := range t {
			owned = append(owned, int(c))
		}
		return nil
	})
	// A tuple's result: its own Stats, peaks included (the pool's
	// per-worker totals would mix in the tuples the worker drew before),
	// and its error.
	type tupleResult struct {
		stats extmem.Stats
		err   error
	}
	solveTuple := func(i int) func(*extmem.Space, *trienum.Sink) tupleResult {
		return func(sp *extmem.Space, out *trienum.Sink) tupleResult {
			order := slices.Clone(owned[i*k : (i+1)*k])
			sp.ResetStats()
			lease := sp.LeaseAtMost(C*C + 1) // the offset index
			edges, off := layOutTuple(sp, buckets, C, order)
			solve := f.tupleSolver(C, col.Color)
			var r tupleResult
			for more := true; more && r.err == nil; more = cluster.NextOrdering(order) {
				// A cancelled query stops between orderings, as the
				// single-process engine stops between tuples.
				if r.err = ctx.Err(); r.err == nil {
					r.err = solve(sp, edges, off, order, out.Tuple)
				}
			}
			lease.Release()
			r.stats = sp.Stats()
			return r
		}
	}
	tr.Subproblems = len(owned) / k
	x := trienum.Exec{Workers: req.Workers, Ctx: ctx}
	cfg := extmem.Config{M: st.man.MemoryWords, B: st.man.BlockWords, Native: req.Native}
	var solveErr error
	_, err = trienum.RunTuples(x, cfg, nil, k, tr.Subproblems, solveTuple, func(t []uint32) {
		flat = append(flat, t...)
	}, func(r tupleResult) {
		s := r.stats
		tr.Stats.Add(cluster.IOStats{BlockReads: s.BlockReads, BlockWrites: s.BlockWrites, WordReads: s.WordReads,
			WordWrites: s.WordWrites, PeakLeaseWords: s.PeakLease, PeakDiskWords: s.PeakAlloc})
		solveErr = errors.Join(solveErr, r.err)
	})
	if err = errors.Join(err, solveErr); err != nil {
		return nil, tr, err
	}
	cluster.SortTuples(flat, k)
	tr.Done = true
	tr.Delivered = uint64(len(flat) / k)
	return flat, tr, nil
}

// layOutTuple writes the buckets of every ordered pair of the tuple's
// colors to one block-aligned extent of sp, in color-pair key order, and
// returns it with its C²+1 offset index: bucket (a,b) at
// [off[a·C+b], off[a·C+b+1]), empty unless both colors are in the tuple.
// It flushes the writes, so the tuple's input is charged as written to
// external memory before it is solved.
func layOutTuple(sp *extmem.Space, buckets [][]extmem.Word, C int, tuple []int) (extmem.Extent, []int64) {
	off := make([]int64, C*C+1)
	for key := range C * C {
		off[key+1] = off[key]
		if slices.Contains(tuple, key/C) && slices.Contains(tuple, key%C) {
			off[key+1] += int64(len(buckets[key]))
		}
	}
	edges := sp.Alloc(off[C*C])
	for key := range C * C {
		edges.Slice(off[key], off[key+1]).Store(buckets[key][:off[key+1]-off[key]])
	}
	sp.Flush()
	return edges, off
}

func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	var req cluster.ShardQueryRequest
	if !decodeBody(w, r, "shard query", &req) {
		return
	}
	f, err := clusterFamily(req.Kind, req.K, req.Pattern, req.Algorithm, s.shard.man.Colors)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	flat, tr, err := runShardQuery(r.Context(), s.shard, req, f)
	if err != nil {
		// The stream has not started: every failure still gets a proper
		// status line.
		status := queryStatus(err)
		if req.Epoch != nil && tr.Epoch != *req.Epoch {
			status = http.StatusConflict
		}
		writeError(w, status, "shard query: %v", err)
		return
	}
	nw := s.newNDJSON(w, "")
	k := f.arity()
	for i := 0; i+k <= len(flat) && nw.emit(flat[i:i+k]) == nil; i += k {
	}
	nw.send(tr)
}

func (s *Server) handleShardUpdate(w http.ResponseWriter, r *http.Request) {
	st := s.shard
	var req cluster.ShardUpdateRequest
	if !decodeBody(w, r, "shard update", &req) {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	resp := cluster.ShardUpdateResponse{Phase: req.Phase, UpdateID: req.UpdateID, Epoch: st.epoch, Generation: st.g.Generation()}
	switch req.Phase {
	case cluster.PhasePrepare:
		if req.UpdateID == st.lastID && req.Epoch+1 == st.epoch &&
			slices.Equal(req.Add, st.last.add) && slices.Equal(req.Remove, st.last.remove) {
			// This shard committed the round already: a coordinator
			// re-issuing a partially committed update gets the remembered
			// outcome and stages nothing, and its commit replays. Another
			// delta under the same id is an epoch mismatch below.
			writeJSON(w, http.StatusOK, st.lastResp)
			return
		}
		if req.Epoch != st.epoch {
			writeError(w, http.StatusConflict, "prepare against epoch %d but shard is at %d", req.Epoch, st.epoch)
			return
		}
		if req.UpdateID != st.epoch+1 {
			writeError(w, http.StatusConflict, "prepare id %d but the next update is %d", req.UpdateID, st.epoch+1)
			return
		}
		// Re-preparing the same id overwrites: a coordinator retry of a
		// failed round restages cleanly.
		st.staged[req.UpdateID] = stagedDelta{add: req.Add, remove: req.Remove}
	case cluster.PhaseAbort:
		delete(st.staged, req.UpdateID)
	case cluster.PhaseCommit:
		if req.UpdateID == st.lastID && st.lastID != 0 {
			// Idempotent replay: the commit already happened; a retrying
			// coordinator (repairing a partially-committed round) gets
			// the remembered outcome instead of a double-apply.
			writeJSON(w, http.StatusOK, st.lastResp)
			return
		}
		d, ok := st.staged[req.UpdateID]
		if !ok {
			writeError(w, http.StatusConflict, "commit %d: nothing staged under that id", req.UpdateID)
			return
		}
		if req.Epoch != st.epoch {
			writeError(w, http.StatusConflict, "commit against epoch %d but shard is at %d", req.Epoch, st.epoch)
			return
		}
		res, err := st.g.Update(r.Context(), repro.Delta{Add: d.add, Remove: d.remove})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "commit %d: %v", req.UpdateID, err)
			return
		}
		delete(st.staged, req.UpdateID)
		st.epoch++
		resp.Epoch = st.epoch
		resp.Generation = res.Generation
		resp.Added, resp.Removed = res.Added, res.Removed
		resp.Vertices, resp.Edges = res.Vertices, res.Edges
		resp.MergeIOs = res.MergeIOs
		st.lastID = req.UpdateID
		st.lastResp = resp
		st.last = d
	default:
		writeError(w, http.StatusBadRequest, "unknown update phase %q", req.Phase)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	cl := s.coord
	writeJSON(w, http.StatusOK, cluster.CoordinatorInfoResponse{
		Colors:   cl.Colors(),
		Seed:     cl.Seed(),
		Epoch:    cl.Epoch(),
		Shards:   cl.Shards(),
		Vertices: cl.NumVertices(),
		Edges:    cl.NumEdges(),
	})
}

// handleClusterQuery streams a gathered cluster query: the coordinator
// fans out to every shard, k-way merges, and this handler re-encodes
// the merged tuples — the same {"v":[...]} lines a single-process
// Query.Ordered stream carries, byte for byte.
func (s *Server) handleClusterQuery(w http.ResponseWriter, r *http.Request) {
	var req cluster.CoordinatorQueryRequest
	if !decodeBody(w, r, "cluster query", &req) {
		return
	}
	f, err := clusterFamily(req.Kind, req.K, req.Pattern, req.Algorithm, s.coord.Colors())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := repro.Query{Seed: req.Seed, Workers: req.Workers, Limit: req.Limit}
	if req.Native {
		q.Mode = repro.ModeNative
	}
	nw := s.newNDJSON(w, "")
	cr, err := f.gather(r.Context(), s.coord, q, func(vs []uint32) { nw.emit(vs) })
	if err != nil && !nw.started {
		writeError(w, queryStatus(err), "cluster query: %v", err)
		return
	}
	trailer := cluster.CoordinatorTrailer{
		Done:        err == nil,
		Delivered:   cr.Delivered,
		Matches:     cr.Matches,
		Epoch:       cr.Epoch,
		Vertices:    cr.Vertices,
		Edges:       cr.Edges,
		Subproblems: cr.Subproblems,
		Stats:       WireIOStats(cr.Stats),
	}
	for _, sr := range cr.Shards {
		trailer.Shards = append(trailer.Shards, cluster.ShardRun{
			Index:       sr.Index,
			Delivered:   sr.Delivered,
			Subproblems: sr.Subproblems,
			Stats:       WireIOStats(sr.Stats),
		})
	}
	if err != nil {
		trailer.Error = err.Error()
	}
	nw.send(trailer)
}

func (s *Server) handleClusterUpdate(w http.ResponseWriter, r *http.Request) {
	cl := s.coord
	var req cluster.CoordinatorUpdateRequest
	if !decodeBody(w, r, "cluster update", &req) {
		return
	}
	ur, err := cl.Update(r.Context(), repro.Delta{Add: req.Add, Remove: req.Remove})
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, repro.ErrClusterClosed) {
			status = http.StatusGone
		}
		writeError(w, status, "cluster update: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.CoordinatorUpdateResponse{
		Epoch:    ur.Epoch,
		Added:    ur.Added,
		Removed:  ur.Removed,
		Vertices: ur.Vertices,
		Edges:    ur.Edges,
		MergeIOs: ur.MergeIOs,
	})
}
