// Package serve is the engine room of cmd/trienumd: an HTTP/JSON
// multi-tenant query daemon over repro Graph handles, built entirely on
// the standard library.
//
// The daemon is a thin network boundary around machinery the library
// already provides — immutable shared cores, per-query session Spaces,
// MVCC generations, cancellation, Query.Limit — and it preserves the
// library's signature contract across the wire: the NDJSON result
// stream of a query is byte-identical to the in-process callback query
// at every Workers value, because emissions are encoded one per line in
// the engine's deterministic emission order, from the producer's
// calling goroutine. Backpressure is the HTTP connection itself: a slow
// client blocks the response write, which blocks the emit callback,
// which stalls the producer cooperatively.
//
// Pagination follows the paginated list-endpoint idiom: a query with
// Limit n streams at most n results and ends with an opaque resumable
// cursor token encoding the position reached in the deterministic
// emission order; replaying the query with that cursor emits exactly
// the uncursored stream's suffix, as long as the graph generation the
// cursor pinned is still current (an intervening Update invalidates it
// with 409).
//
// Multi-tenancy is admission control over the session-Space budget: a
// tenant (the X-Tenant request header) is a budget of concurrent
// sessions and total M-words, each query or update costing one session
// of the graph's Options.MemoryWords until it drains. Exhausting either
// cap fails fast with 429; per-tenant Result and IO statistics are
// surfaced on /v1/stats. See docs/API.md for the wire contract.
package serve

import (
	"repro"
	"repro/internal/cluster"
)

// Wire types: the JSON bodies of every endpoint. Field order is part of
// the wire contract — encoding/json emits struct fields in declaration
// order, and the byte-identity tests compare encoded streams directly.

// GraphInfo describes one loaded graph, as listed by GET /v1/graphs.
type GraphInfo struct {
	// ID is the registry name the graph was loaded under.
	ID string `json:"id"`
	// Generation is the current MVCC generation: 0 after a build,
	// incremented by every effective update.
	Generation uint64 `json:"generation"`
	// Vertices and Edges describe the current generation's canonical
	// (deduplicated) graph.
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	// CanonIOs is the one-time block-I/O cost paid for the current
	// generation's canonical image (build + delta merges; 0 for an
	// adopted image).
	CanonIOs uint64 `json:"canon_ios"`
	// MemoryWords is the per-session M-word cost a query against this
	// graph charges to its tenant's budget.
	MemoryWords int `json:"memory_words"`
	// DiskPath is the durable image path for disk-backed graphs
	// (empty for memory-backed ones).
	DiskPath string `json:"disk_path,omitempty"`
	// Queries counts the queries served against this graph since load.
	Queries uint64 `json:"queries"`
}

// GraphList is the response of GET /v1/graphs. Graphs are sorted by ID,
// so the listing is deterministic.
type GraphList struct {
	Graphs []GraphInfo `json:"graphs"`
}

// LoadRequest is the body of POST /v1/graphs: load (build or open) a
// graph into the registry under ID. Exactly one source must be set:
//
//   - Spec: build from a generator spec (repro.Generate syntax);
//   - Edges: build from an inline edge list;
//   - Path with neither: open (adopt) an existing durable image via
//     repro.Open, replaying its write-ahead log if a crash left one.
//
// Path combined with Spec or Edges builds a durable image at Path
// (Options.DiskPath). The machine options default like repro.Options.
type LoadRequest struct {
	ID    string      `json:"id"`
	Spec  string      `json:"spec,omitempty"`
	Edges [][2]uint32 `json:"edges,omitempty"`
	Path  string      `json:"path,omitempty"`
	// MemoryWords, BlockWords, Workers, Seed configure the simulated
	// machine (see repro.Options); zero values take the library
	// defaults.
	MemoryWords int    `json:"memory_words,omitempty"`
	BlockWords  int    `json:"block_words,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
}

// LoadResponse is the response of POST /v1/graphs.
type LoadResponse struct {
	Graph GraphInfo `json:"graph"`
	// Opened is true when the graph was adopted from an existing image
	// (repro.Open) rather than built.
	Opened bool `json:"opened,omitempty"`
	// Replayed, ReplayIOs and AdoptIOs mirror repro.OpenResult for an
	// opened graph: write-ahead-log records replayed and the block-I/O
	// cost of recovery and adoption.
	Replayed  int    `json:"replayed,omitempty"`
	ReplayIOs uint64 `json:"replay_ios,omitempty"`
	AdoptIOs  uint64 `json:"adopt_ios,omitempty"`
}

// QueryRequest is the body of POST /v1/graphs/{id}/query. The response
// is an NDJSON stream (Content-Type application/x-ndjson): zero or more
// emission lines — {"v":[...]} in the engine's deterministic emission
// order — followed by exactly one trailer line (QueryTrailer).
type QueryRequest struct {
	// Kind selects the query: "triangles" (default), "cliques", or
	// "match".
	Kind string `json:"kind,omitempty"`
	// K is the clique size for Kind "cliques" (k >= 3).
	K int `json:"k,omitempty"`
	// Pattern is the named pattern for Kind "match" (repro.ParsePattern
	// names, e.g. "diamond").
	Pattern string `json:"pattern,omitempty"`
	// Algorithm selects the triangle algorithm by name
	// (repro.ParseAlgorithm; default "cacheaware"). Triangles only.
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives the randomized decompositions; the emission stream is
	// deterministic in it.
	Seed uint64 `json:"seed,omitempty"`
	// Workers overrides the graph's worker count for this query. The
	// emission stream and aggregated statistics are identical at every
	// value — wall-clock only.
	Workers int `json:"workers,omitempty"`
	// Native runs the query natively on the canonical image
	// (repro.ModeNative): the emission lines are byte-identical to the
	// simulated run, but the trailer's result.stats is zero — native
	// execution compiles the block-I/O accounting out. Applies to every
	// kind. A cursor remembers the mode it was minted under; resuming
	// with a conflicting mode is a 400.
	Native bool `json:"native,omitempty"`
	// Ordered delivers the stream in the canonical global order
	// (repro.Query.Ordered): ascending lexicographic tuples, match
	// embeddings normalized. The canonical order is a pure function of
	// the edge set and the query — the order a cluster coordinator's
	// gathered stream arrives in — at the cost of buffering the full
	// result before the first emission line. Like Native, a cursor pins
	// the mode it was minted under.
	Ordered bool `json:"ordered,omitempty"`
	// Limit, when positive, ends the stream cleanly after Limit
	// emissions and returns a resumable cursor in the trailer.
	Limit uint64 `json:"limit,omitempty"`
	// Cursor resumes a previous query of this graph from the position
	// its trailer reported. The query parameters above must match the
	// cursor's (or be left zero to inherit them); the graph generation
	// must still be the one the cursor was minted on, else 409.
	Cursor string `json:"cursor,omitempty"`
}

// QueryTrailer is the final line of a query's NDJSON stream.
type QueryTrailer struct {
	Done bool `json:"done"`
	// Delivered counts the emission lines streamed by this response
	// (after any cursor skip).
	Delivered uint64 `json:"delivered"`
	// Generation is the MVCC generation the query ran on (the one a
	// returned cursor is valid for).
	Generation uint64 `json:"generation"`
	// Cursor, when non-empty, resumes the stream where this response
	// stopped (the query hit its Limit). Pass it back verbatim in
	// QueryRequest.Cursor.
	Cursor string `json:"cursor,omitempty"`
	// Result is the query's statistics, exactly the in-process
	// repro.Result of the same query (WorkerStats excluded: individual
	// per-worker entries are scheduling-dependent; their sum is already
	// in Result.Stats).
	Result WireResult `json:"result"`
	// Error reports a producer failure after streaming began (the HTTP
	// status was already committed as 200 by then). Empty on success.
	Error string `json:"error,omitempty"`
}

// WireResult is repro.Result on the wire, minus the scheduling-dependent
// per-worker breakdown — everything in it is deterministic and
// worker-invariant, so the trailer bytes are identical at every Workers
// value.
type WireResult struct {
	Triangles       uint64      `json:"triangles"`
	Matches         uint64      `json:"matches"`
	Vertices        int         `json:"vertices"`
	Edges           int64       `json:"edges"`
	Stats           WireIOStats `json:"stats"`
	CanonIOs        uint64      `json:"canon_ios"`
	Colors          int         `json:"colors,omitempty"`
	HighDegVertices int         `json:"high_deg_vertices,omitempty"`
	Subproblems     int         `json:"subproblems,omitempty"`
	MaxSubproblem   int64       `json:"max_subproblem,omitempty"`
}

// WireIOStats is repro.IOStats on the wire: the same type as the cluster
// wire's IOStats, so every endpoint encodes statistics one way.
type WireIOStats = cluster.IOStats

// ToWireResult converts an in-process Result to its wire form — exported
// so tests and clients can assert the trailer equals the in-process
// query bit for bit.
func ToWireResult(r repro.Result) WireResult {
	return WireResult{
		Triangles:       r.Triangles,
		Matches:         r.Matches,
		Vertices:        r.Vertices,
		Edges:           r.Edges,
		Stats:           WireIOStats(r.Stats),
		CanonIOs:        r.CanonIOs,
		Colors:          r.Colors,
		HighDegVertices: r.HighDegVertices,
		Subproblems:     r.Subproblems,
		MaxSubproblem:   r.MaxSubproblem,
	}
}

// SubscribeRequest is the body of POST /v1/graphs/{id}/subscriptions:
// register a standing query and hold the connection open as its change
// stream. The response is NDJSON: one WireSubscribed hello line, then
// one WireChange line per effective update (flushed immediately — this
// is a live stream), then one WireSubEnd line when the subscription
// ends. The connection is the subscription's lifetime: closing it (or
// cancelling the request) unregisters the standing query.
type SubscribeRequest struct {
	// Kind selects the family: "triangles" (default), "cliques", or
	// "match" — the same families as a query, differentially enumerated.
	Kind string `json:"kind,omitempty"`
	// K is the clique size for Kind "cliques" (k >= 3).
	K int `json:"k,omitempty"`
	// Pattern is the named pattern for Kind "match".
	Pattern string `json:"pattern,omitempty"`
	// Workers bounds the differential kernel's parallelism; the change
	// stream and its statistics are identical at every value.
	Workers int `json:"workers,omitempty"`
	// AfterGeneration, when set, is the reconnect handshake: the last
	// generation this client has already integrated (the Generation of
	// the last WireChange or WireSubEnd it processed). The subscription
	// must begin exactly there — if the graph has moved past it (updates
	// applied while the client was away), the request fails with 409 and
	// the client must re-baseline with a fresh full query. When unset,
	// the stream simply starts at the current generation.
	AfterGeneration *uint64 `json:"after_generation,omitempty"`
}

// WireSubscribed is the hello line of a subscription stream: the
// registration generation. Every subsequent change carries consecutive
// generation numbers starting one past it.
type WireSubscribed struct {
	Subscribed bool   `json:"subscribed"`
	Generation uint64 `json:"generation"`
}

// WireChange is one repro.ChangeSet on the wire: the matches one
// effective update created and destroyed, in the deterministic
// lexicographic order the library delivers, with the differential
// enumeration cost. Like every wire body its bytes are invariant in
// workers and backend.
type WireChange struct {
	Generation uint64      `json:"generation"`
	Added      [][]uint32  `json:"added"`
	Removed    [][]uint32  `json:"removed"`
	Vertices   int         `json:"vertices"`
	Edges      int64       `json:"edges"`
	Stats      WireIOStats `json:"stats"`
}

// ToWireChange converts a delivered ChangeSet to its wire form —
// exported so tests and clients can assert the stream equals the
// in-process subscription bit for bit. Added/Removed are never null on
// the wire ([] when empty).
func ToWireChange(cs repro.ChangeSet) WireChange {
	added, removed := cs.Added, cs.Removed
	if added == nil {
		added = [][]uint32{}
	}
	if removed == nil {
		removed = [][]uint32{}
	}
	return WireChange{
		Generation: cs.Generation,
		Added:      added,
		Removed:    removed,
		Vertices:   cs.Vertices,
		Edges:      cs.Edges,
		Stats:      WireIOStats(cs.Stats),
	}
}

// WireSubEnd is the final line of a subscription stream.
type WireSubEnd struct {
	// Done is true for an orderly ending (graph closed or unloaded,
	// stream cancelled); false when the differential kernel failed.
	Done bool `json:"done"`
	// Generation is the last generation delivered on this stream (the
	// registration generation when nothing was) — the value to hand back
	// as AfterGeneration to resume exactly.
	Generation uint64 `json:"generation"`
	// Delivered counts the WireChange lines streamed.
	Delivered uint64 `json:"delivered"`
	// Error reports why the subscription ended, empty for a plain close.
	Error string `json:"error,omitempty"`
}

// UpdateRequest is the body of POST /v1/graphs/{id}/update: a batched
// repro.Delta. The updated edge set is (E \ Remove) ∪ Add; no-op
// changes are ignored.
type UpdateRequest struct {
	Add    [][2]uint32 `json:"add,omitempty"`
	Remove [][2]uint32 `json:"remove,omitempty"`
}

// UpdateResponse mirrors repro.UpdateResult: the generation now serving
// queries, the effective change counts, and the deterministic merge
// cost.
type UpdateResponse struct {
	Generation uint64 `json:"generation"`
	Added      int64  `json:"added"`
	Removed    int64  `json:"removed"`
	Vertices   int    `json:"vertices"`
	Edges      int64  `json:"edges"`
	MergeIOs   uint64 `json:"merge_ios"`
}

// CheckpointResponse is the response of POST /v1/graphs/{id}/checkpoint.
type CheckpointResponse struct {
	// Generation is the generation durably promoted over the image.
	Generation uint64 `json:"generation"`
}

// TenantStats is one tenant's admission state and cumulative usage, as
// reported by GET /v1/stats.
type TenantStats struct {
	// ActiveSessions and ActiveMemoryWords are the budget in use right
	// now; the per-tenant caps bound them.
	ActiveSessions    int   `json:"active_sessions"`
	ActiveMemoryWords int64 `json:"active_memory_words"`
	// Admitted and Rejected count admission decisions (a rejection is a
	// 429 response).
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	// Queries, Updates and Emissions count completed work.
	Queries   uint64 `json:"queries"`
	Updates   uint64 `json:"updates"`
	Emissions uint64 `json:"emissions"`
	// BlockReads/BlockWrites aggregate the per-query Result.Stats of the
	// tenant's completed queries; UpdateIOs aggregates its updates'
	// MergeIOs. All deterministic block counts.
	BlockReads  uint64 `json:"block_reads"`
	BlockWrites uint64 `json:"block_writes"`
	UpdateIOs   uint64 `json:"update_ios"`
	// BytesStreamed counts NDJSON response bytes written to the tenant.
	BytesStreamed uint64 `json:"bytes_streamed"`
}

// StatsResponse is the body of GET /v1/stats: the admission caps and
// every tenant seen so far, keyed by tenant name.
type StatsResponse struct {
	MaxTenantSessions    int                    `json:"max_tenant_sessions"`
	MaxTenantMemoryWords int64                  `json:"max_tenant_memory_words"`
	Tenants              map[string]TenantStats `json:"tenants"`
}

// ErrorResponse is the JSON body of every non-2xx response (except
// mid-stream failures, which are reported in the QueryTrailer).
type ErrorResponse struct {
	Error string `json:"error"`
}
