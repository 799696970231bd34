package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro"
)

// Config parametrizes a Server. The zero value serves with unlimited
// tenant budgets.
type Config struct {
	// MaxTenantSessions caps the concurrent query/update sessions of one
	// tenant (0 = unlimited). Work beyond the cap is answered 429.
	MaxTenantSessions int
	// MaxTenantMemoryWords caps the total session M-words one tenant may
	// have outstanding (0 = unlimited); each session costs its graph's
	// Options.MemoryWords. Work beyond the cap is answered 429.
	MaxTenantMemoryWords int64
	// FlushEvery flushes the NDJSON stream to the client every N
	// emission lines (default 64; 1 flushes every line). The trailer
	// always flushes.
	FlushEvery int
	// AuthToken, when non-empty, requires every request (except
	// GET /healthz) to carry "Authorization: Bearer <AuthToken>".
	// Authentication runs before anything else — in particular before
	// the X-Tenant header is trusted for admission accounting — and a
	// missing or wrong token is answered 401. Comparison is constant
	// time.
	AuthToken string
}

// Server is the daemon state: a registry of loaded Graph handles plus
// the admission controller. Create with New, mount Handler on an
// http.Server, and Close on the way out — Close drains every active
// query through the handles' close-guards.
type Server struct {
	cfg Config
	adm *admission

	mu     sync.Mutex
	graphs map[string]*graphEntry
	closed bool

	// Cluster roles, configured before Handler via ServeShard /
	// ServeCoordinator (see cluster_serve.go). Nil when this daemon is
	// not part of a cluster.
	shard *shardState
	coord *repro.Cluster
}

// graphEntry is one registry slot.
type graphEntry struct {
	id      string
	g       *repro.Graph
	path    string
	queries atomic.Uint64

	// genMu orders generation installs against stream starts: an update
	// holds the write lock while installing its generation; a starting
	// query holds the read lock from capturing g.Generation() until its
	// producer's first emission (by which point the session has pinned
	// that generation). The generation a stream reports — and mints
	// cursors against — is therefore exactly the one it ran on, with no
	// install window in between. Queries never block each other, and an
	// update waits only for streams still before their first emission.
	genMu sync.RWMutex
}

// New returns an empty Server.
func New(cfg Config) *Server {
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 64
	}
	return &Server{
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxTenantSessions, cfg.MaxTenantMemoryWords),
		graphs: map[string]*graphEntry{},
	}
}

// AddGraph registers an already-built handle under id — the programmatic
// form of POST /v1/graphs, used by cmd/trienumd's -load flag and by
// tests. The Server takes ownership: Close (or DELETE) will Close it.
func (s *Server) AddGraph(id string, g *repro.Graph, path string) error {
	if err := validateID(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("serve: server is closed")
	}
	if _, ok := s.graphs[id]; ok {
		return fmt.Errorf("serve: graph %q already loaded", id)
	}
	s.graphs[id] = &graphEntry{id: id, g: g, path: path}
	return nil
}

// Close unregisters and closes every graph, draining their active
// queries and updates (repro.Graph.Close waits on the close-guard;
// disk-backed handles checkpoint implicitly). Streams already running
// finish normally; new requests against the registry fail.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	entries := make([]*graphEntry, 0, len(s.graphs))
	for _, e := range s.graphs {
		entries = append(entries, e)
	}
	s.graphs = map[string]*graphEntry{}
	s.mu.Unlock()
	var err error
	for _, e := range entries {
		err = errors.Join(err, e.g.Close())
	}
	if s.shard != nil {
		err = errors.Join(err, s.shard.g.Close())
	}
	if s.coord != nil {
		err = errors.Join(err, s.coord.Close())
	}
	return err
}

// Handler returns the daemon's HTTP routes. See docs/API.md for the
// wire contract of each endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/graphs", s.handleList)
	mux.HandleFunc("POST /v1/graphs", s.handleLoad)
	mux.HandleFunc("GET /v1/graphs/{id}", s.handleGraphInfo)
	mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleUnload)
	mux.HandleFunc("POST /v1/graphs/{id}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/graphs/{id}/subscriptions", s.handleSubscribe)
	mux.HandleFunc("POST /v1/graphs/{id}/update", s.handleUpdate)
	mux.HandleFunc("POST /v1/graphs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.registerCluster(mux)
	return s.withAuth(mux)
}

// withAuth gates every route except the liveness probe behind the
// configured bearer token. With no token configured it is a no-op.
func (s *Server) withAuth(next http.Handler) http.Handler {
	if s.cfg.AuthToken == "" {
		return next
	}
	want := []byte(s.cfg.AuthToken)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		// The token is checked before the X-Tenant header (or anything
		// else in the request) is acted on: an unauthenticated caller
		// cannot consume admission budget or learn registry state.
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), want) == 0 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="trienumd"`)
			writeError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

func (s *Server) lookup(id string) *graphEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphs[id]
}

func validateID(id string) error {
	if id == "" || strings.ContainsAny(id, "/\\ \t\n") {
		return fmt.Errorf("serve: invalid graph id %q", id)
	}
	return nil
}

// tenantOf resolves the request's tenant: the X-Tenant header, or
// "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (e *graphEntry) info() GraphInfo {
	return GraphInfo{
		ID:          e.id,
		Generation:  e.g.Generation(),
		Vertices:    e.g.NumVertices(),
		Edges:       e.g.NumEdges(),
		CanonIOs:    e.g.CanonIOs(),
		MemoryWords: e.g.Options().MemoryWords,
		DiskPath:    e.path,
		Queries:     e.queries.Load(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*graphEntry, 0, len(s.graphs))
	for _, e := range s.graphs {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	list := GraphList{Graphs: make([]GraphInfo, 0, len(entries))}
	for _, e := range entries {
		list.Graphs = append(list.Graphs, e.info())
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !decodeBody(w, r, "load request", &req) {
		return
	}
	if err := validateID(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Spec != "" && len(req.Edges) > 0 {
		writeError(w, http.StatusBadRequest, "spec and edges are mutually exclusive")
		return
	}
	if req.Spec == "" && len(req.Edges) == 0 && req.Path == "" {
		writeError(w, http.StatusBadRequest, "one of spec, edges, or path is required")
		return
	}

	opts := repro.Options{
		MemoryWords: req.MemoryWords,
		BlockWords:  req.BlockWords,
		Workers:     req.Workers,
		Seed:        req.Seed,
		DiskPath:    req.Path,
	}
	var (
		g      *repro.Graph
		or     repro.OpenResult
		opened bool
		err    error
	)
	switch {
	case req.Spec != "":
		g, err = repro.Build(repro.FromSpec(req.Spec), opts)
	case len(req.Edges) > 0:
		g, err = repro.Build(repro.FromEdges(req.Edges), opts)
	default:
		// Path alone: adopt the existing durable image.
		opts.DiskPath = ""
		g, or, err = repro.Open(req.Path, opts)
		opened = true
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "load %q: %v", req.ID, err)
		return
	}
	if err := s.AddGraph(req.ID, g, req.Path); err != nil {
		g.Close()
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	resp := LoadResponse{Graph: s.lookup(req.ID).info(), Opened: opened}
	if opened {
		resp.Replayed = or.Replayed
		resp.ReplayIOs = or.ReplayIOs
		resp.AdoptIOs = or.AdoptIOs
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	e := s.graphs[id]
	delete(s.graphs, id)
	s.mu.Unlock()
	if e == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", id)
		return
	}
	if err := e.g.Close(); err != nil {
		writeError(w, http.StatusInternalServerError, "closing %q: %v", id, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		MaxTenantSessions:    s.cfg.MaxTenantSessions,
		MaxTenantMemoryWords: s.cfg.MaxTenantMemoryWords,
		Tenants:              s.adm.snapshot(),
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", r.PathValue("id"))
		return
	}
	var req UpdateRequest
	if !decodeBody(w, r, "update request", &req) {
		return
	}
	tenant := tenantOf(r)
	release, err := s.adm.acquire(tenant, int64(e.g.Options().MemoryWords))
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer release()

	// The write side of the stream-start ordering: no query captures its
	// generation while the install is in flight (see graphEntry.genMu).
	e.genMu.Lock()
	res, err := e.g.Update(r.Context(), repro.Delta{Add: req.Add, Remove: req.Remove})
	e.genMu.Unlock()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, repro.ErrGraphClosed) {
			status = http.StatusGone
		}
		writeError(w, status, "update %q: %v", e.id, err)
		return
	}
	s.adm.recordUpdate(tenant, res.MergeIOs)
	writeJSON(w, http.StatusOK, UpdateResponse{
		Generation: res.Generation,
		Added:      res.Added,
		Removed:    res.Removed,
		Vertices:   res.Vertices,
		Edges:      res.Edges,
		MergeIOs:   res.MergeIOs,
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", r.PathValue("id"))
		return
	}
	gen := e.g.Generation()
	if err := e.g.Checkpoint(); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, repro.ErrGraphClosed) {
			status = http.StatusGone
		}
		writeError(w, status, "checkpoint %q: %v", e.id, err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Generation: gen})
}

// resolvedQuery is a QueryRequest after defaulting, validation, and
// cursor reconciliation: the exact query identity the emission order is
// deterministic in, plus the resume position. patName and algName are the
// names a cursor records.
type resolvedQuery struct {
	family
	patName string
	algName string
	seed    uint64
	workers int
	native  bool
	ordered bool
	limit   uint64
	from    repro.Position
}

// resolveQuery reconciles the request with its cursor, if any: zero
// request fields inherit the cursor's query identity; non-zero fields
// must match it (a cursor is a position in one specific stream). The
// reconciled family fields are then validated by resolveFamily.
func resolveQuery(req QueryRequest, cur *cursor) (resolvedQuery, error) {
	rq := resolvedQuery{
		patName: req.Pattern,
		algName: req.Algorithm,
		seed:    req.Seed,
		workers: req.Workers,
		native:  req.Native,
		ordered: req.Ordered,
		limit:   req.Limit,
	}
	kind, k := req.Kind, req.K
	if cur != nil {
		rq.from = repro.Position{Emitted: cur.Pos, Unit: cur.Unit, UnitStart: cur.UnitStart}
		inherit := func(have *string, want string, what string) error {
			if *have == "" {
				*have = want
			} else if *have != want {
				return fmt.Errorf("query %s %q does not match cursor %s %q", what, *have, what, want)
			}
			return nil
		}
		if err := inherit(&kind, cur.Kind, "kind"); err != nil {
			return rq, err
		}
		if err := inherit(&rq.patName, cur.Pattern, "pattern"); err != nil {
			return rq, err
		}
		if err := inherit(&rq.algName, cur.Algorithm, "algorithm"); err != nil {
			return rq, err
		}
		if k == 0 {
			k = cur.K
		} else if k != cur.K {
			return rq, fmt.Errorf("query k %d does not match cursor k %d", k, cur.K)
		}
		if rq.seed == 0 {
			rq.seed = cur.Seed
		} else if rq.seed != cur.Seed {
			return rq, fmt.Errorf("query seed %d does not match cursor seed %d", rq.seed, cur.Seed)
		}
		// The execution mode never changes the emission order, but the
		// trailer statistics differ, so a cursor pins it like the rest of
		// the query identity: unset inherits, set must match.
		if !rq.native {
			rq.native = cur.Native
		} else if !cur.Native {
			return rq, errors.New("query requests native execution but the cursor was minted on a simulated run")
		}
		// Ordered changes the emission order itself, so a cursor position
		// is only meaningful in the mode it was minted under.
		if !rq.ordered {
			rq.ordered = cur.Ordered
		} else if !cur.Ordered {
			return rq, errors.New("query requests the canonical order but the cursor was minted on an engine-order run")
		}
	}
	f, err := resolveFamily(kind, k, rq.patName, rq.algName)
	if err != nil {
		return rq, err
	}
	rq.family = f
	if f.kind == "triangles" {
		rq.algName = f.alg.String()
	}
	return rq, nil
}

// mintCursor encodes the position this stream stopped at.
func (rq resolvedQuery) mintCursor(graphID string, gen uint64, next repro.Position) string {
	return encodeCursor(cursor{
		Graph:     graphID,
		Gen:       gen,
		Kind:      rq.kind,
		K:         rq.k,
		Pattern:   rq.patName,
		Algorithm: rq.algName,
		Seed:      rq.seed,
		Native:    rq.native,
		Ordered:   rq.ordered,
		Pos:       next.Emitted,
		Unit:      next.Unit,
		UnitStart: next.UnitStart,
	})
}

// handleQuery streams one query as NDJSON: emission lines in the
// engine's deterministic order, then one QueryTrailer line. Backpressure
// is the response write path: emit runs on this handler goroutine, so a
// slow client stalls the producer cooperatively rather than buffering
// the stream.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", r.PathValue("id"))
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, "query request", &req) {
		return
	}
	var cur *cursor
	if req.Cursor != "" {
		c, err := decodeCursor(req.Cursor)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if c.Graph != e.id {
			writeError(w, http.StatusBadRequest, "cursor belongs to graph %q, not %q", c.Graph, e.id)
			return
		}
		cur = &c
	}
	rq, err := resolveQuery(req, cur)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	tenant := tenantOf(r)
	release, err := s.adm.acquire(tenant, int64(e.g.Options().MemoryWords))
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer release()

	// Capture the generation under the read lock and hold it until the
	// first emission delivered: the session acquired inside the query
	// pins its generation before emitting, and updates install under the
	// write lock, so gen is exactly the stream's generation — a stale
	// cursor is rejected here with no install window to race through.
	e.genMu.RLock()
	gen := e.g.Generation()
	var unlockOnce sync.Once
	unlock := func() { unlockOnce.Do(e.genMu.RUnlock) }
	defer unlock()
	if cur != nil && cur.Gen != gen {
		unlock()
		writeError(w, http.StatusConflict,
			"cursor was minted on generation %d but the graph is at %d; restart the query", cur.Gen, gen)
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	nw := s.newNDJSON(w, strconv.FormatUint(gen, 10))
	q := repro.Query{Seed: rq.seed, Workers: rq.workers, Ordered: rq.ordered, Limit: rq.limit, From: rq.from}
	if rq.native {
		q.Mode = repro.ModeNative
	}
	res, err := rq.query(ctx, e.g, q, func(vs []uint32) {
		unlock()
		if nw.emit(vs) != nil {
			cancel() // the client went away: stop the producer
		}
	})
	unlock() // a query with zero emissions never triggered the callback
	e.queries.Add(1)

	if err != nil && !nw.started {
		// Nothing streamed yet: the failure can still be a proper status.
		writeError(w, queryStatus(err), "query %q: %v", e.id, err)
		return
	}
	if nw.err != nil {
		// The client went away mid-stream; the producer was cancelled and
		// there is nobody left to read a trailer.
		s.adm.recordQuery(tenant, nw.lines, res.Stats.BlockReads, res.Stats.BlockWrites, nw.bytes)
		return
	}
	trailer := QueryTrailer{
		Done:       err == nil,
		Delivered:  nw.lines,
		Generation: gen,
		Result:     ToWireResult(res),
	}
	if err != nil {
		trailer.Error = err.Error()
	}
	// A stream that stopped at its limit may have more behind it: hand
	// back the position in the deterministic emission order.
	if err == nil && rq.limit > 0 && nw.lines == rq.limit {
		trailer.Cursor = rq.mintCursor(e.id, gen, res.Next)
	}
	nw.send(trailer)
	s.adm.recordQuery(tenant, nw.lines, res.Stats.BlockReads, res.Stats.BlockWrites, nw.bytes)
}

// AppendEmission appends the NDJSON emission line for one result —
// {"v":[...]} plus newline — to dst. It is the single encoder of the
// wire's data lines: the server streams through it, and tests encode
// their in-process reference streams with it to assert byte-identity.
func AppendEmission(dst []byte, vs []uint32) []byte {
	dst = append(dst, '{', '"', 'v', '"', ':', '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(v), 10)
	}
	return append(dst, ']', '}', '\n')
}
