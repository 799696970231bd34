package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"

	"repro"
	"repro/internal/cluster"
)

// Cluster roles of the daemon — the server side of the scatter–gather
// layer (see the cluster package doc for the design).
//
// A shard daemon (trienumd -shard) serves one sub-image and executes
// exactly the color tuples its manifest range owns: for each owned
// tuple it assembles the tuple's edge set from a coloring-bucketed
// snapshot of the sub-image, builds an in-memory sub-graph on the
// manifest's simulated machine, runs the query ordered, and keeps the
// emissions whose vertex-color multiset is exactly the tuple. The
// collected emissions are sorted into the canonical order and streamed;
// the coordinator k-way merges the (disjoint, sorted) shard streams.
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

// runShardQuery executes the shard's share of one cluster query: every
// owned color tuple, each as an independent in-memory sub-build plus
// enumeration on the manifest's simulated machine. The returned flat
// tuple buffer is sorted into the canonical order. Everything about the
// result — emissions, counts, CanonIOs, Stats — is a pure function of
// (edge set, manifest, query): the per-tuple edge lists are assembled
// in a fixed deterministic order (lexicographic color pairs, each
// bucket sorted by id pair), so no trace of this process's history or
// placement leaks into the aggregates.
func runShardQuery(ctx context.Context, st *shardState, req cluster.ShardQueryRequest, f family) (flat []uint32, tr cluster.ShardQueryTrailer, err error) {
	// Epoch read and edge snapshot under one read lock: the stream's
	// (epoch, generation) pair is consistent.
	st.mu.RLock()
	epoch := st.epoch
	if req.Epoch != nil && *req.Epoch != epoch {
		st.mu.RUnlock()
		return nil, tr, fmt.Errorf("epoch mismatch: coordinator at %d, shard at %d", *req.Epoch, epoch)
	}
	col := st.man.Coloring()
	buckets := map[uint64][][2]uint32{}
	snapErr := st.g.EdgesFunc(ctx, func(u, v uint32) {
		cu, cv := col.Color(u), col.Color(v)
		if cu > cv {
			cu, cv = cv, cu
		}
		key := uint64(cu)<<32 | uint64(cv)
		buckets[key] = append(buckets[key], [2]uint32{u, v})
	})
	tr.Epoch = epoch
	tr.Vertices = st.g.NumVertices()
	tr.Edges = st.g.NumEdges()
	st.mu.RUnlock()
	if snapErr != nil {
		return nil, tr, snapErr
	}
	// EdgesFunc emits in canonical rank order, which is an artifact of
	// this sub-image's canonicalization; re-sort by id pair so the
	// per-tuple input order (and with it the sub-build cost) depends
	// only on the edge set.
	for _, b := range buckets {
		sort.Slice(b, func(i, j int) bool {
			if b[i][0] != b[j][0] {
				return b[i][0] < b[j][0]
			}
			return b[i][1] < b[j][1]
		})
	}

	sq := repro.Query{Seed: req.Seed, Workers: req.Workers, Ordered: true}
	if req.Native {
		sq.Mode = repro.ModeNative
	}
	k := f.arity()
	emColors := make([]uint32, k)
	distinct := make([]uint32, 0, k)
	err = st.man.OwnedTuples(st.index, k, func(t []uint32) error {
		tr.Subproblems++
		distinct = distinct[:0]
		for _, c := range t {
			if len(distinct) == 0 || distinct[len(distinct)-1] != c {
				distinct = append(distinct, c)
			}
		}
		var es [][2]uint32
		for i := 0; i < len(distinct); i++ {
			for j := i; j < len(distinct); j++ {
				es = append(es, buckets[uint64(distinct[i])<<32|uint64(distinct[j])]...)
			}
		}
		if len(es) == 0 {
			// Nothing to build — and crucially, nothing any other shard
			// count would have built either: the skip is a function of
			// the edge set and tuple alone.
			return nil
		}
		tr.Builds++
		sg, err := repro.Build(repro.FromEdges(es), repro.Options{
			MemoryWords: st.man.MemoryWords,
			BlockWords:  st.man.BlockWords,
			Workers:     req.Workers,
		})
		if err != nil {
			return err
		}
		tr.CanonIOs += sg.CanonIOs()
		// Keep exactly the emissions whose vertex-color multiset is the
		// tuple: the sub-graph contains every edge among the tuple's
		// colors, so it also finds matches belonging to sub-multisets —
		// those belong to (and are found by) other tuples.
		collect := func(vs []uint32) {
			for i, v := range vs {
				emColors[i] = col.Color(v)
			}
			slices.Sort(emColors)
			for i := range emColors {
				if emColors[i] != t[i] {
					return
				}
			}
			flat = append(flat, vs...)
		}
		res, err := f.query(ctx, sg, sq, collect)
		cerr := sg.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		tr.Stats.Add(wireStats(res.Stats))
		return nil
	})
	if err != nil {
		return nil, tr, err
	}
	cluster.SortTuples(flat, k)
	tr.Done = true
	tr.Delivered = uint64(len(flat) / k)
	return flat, tr, nil
}

func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	var req cluster.ShardQueryRequest
	if !decodeBody(w, r, "shard query", &req) {
		return
	}
	f, err := resolveFamily(req.Kind, req.K, req.Pattern, req.Algorithm)
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
	f, err := resolveFamily(req.Kind, req.K, req.Pattern, req.Algorithm)
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
		CanonIOs:    cr.CanonIOs,
		Stats:       wireStats(cr.Stats),
	}
	for _, sr := range cr.Shards {
		trailer.Shards = append(trailer.Shards, cluster.ShardRun{
			Index:       sr.Index,
			Delivered:   sr.Delivered,
			Subproblems: sr.Subproblems,
			Builds:      sr.Builds,
			CanonIOs:    sr.CanonIOs,
			Stats:       wireStats(sr.Stats),
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
