package cluster

// Wire types of the cluster endpoints — shared between the shard server
// (internal/serve) and the coordinator client (repro.Cluster). Field
// order is part of the wire contract: encoding/json emits struct fields
// in declaration order, and the byte-identity tests compare encoded
// streams directly.

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Edges is an edge list on the wire: a JSON array of [u, v] pairs. It
// encodes as [][2]uint32 does, but decoding refuses an element that is
// not exactly two uint32s, where encoding/json would pad a short array
// or a null with zeros and drop extra elements.
type Edges [][2]uint32

// UnmarshalJSON decodes the list one element at a time, so a long list
// costs no more than its pairs.
func (e *Edges) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	d := json.NewDecoder(bytes.NewReader(b))
	if tok, err := d.Token(); err != nil || tok != json.Delim('[') {
		return fmt.Errorf("edge list %.20s is not an array", b)
	}
	var out Edges
	var pair []*uint32 // a null decodes as nil
	for d.More() {
		if err := d.Decode(&pair); err != nil {
			return fmt.Errorf("edge %d: %w", len(out), err)
		}
		if len(pair) != 2 || pair[0] == nil || pair[1] == nil {
			return fmt.Errorf("edge %d is not a pair of uint32s", len(out))
		}
		out = append(out, [2]uint32{*pair[0], *pair[1]})
	}
	*e = out
	return nil
}

// IOStats is repro.IOStats on the wire of every daemon endpoint: serve's
// WireIOStats is an alias of it, so query trailers, change streams and
// the cluster trailers encode statistics one way. It has repro.IOStats'
// fields, so the two convert directly (a conversion ignores struct tags),
// and a field added to one alone stops the conversions compiling.
type IOStats struct {
	BlockReads     uint64 `json:"block_reads"`
	BlockWrites    uint64 `json:"block_writes"`
	WordReads      uint64 `json:"word_reads"`
	WordWrites     uint64 `json:"word_writes"`
	PeakLeaseWords int    `json:"peak_lease_words"`
	PeakDiskWords  int64  `json:"peak_disk_words"`
}

// Add accumulates other into s. Peaks aggregate additively: summed over
// subproblems they bound the shard's total scratch footprint, and the
// sum — unlike a maximum over concurrently-live sessions — is
// deterministic and placement-invariant.
func (s *IOStats) Add(other IOStats) {
	s.BlockReads += other.BlockReads
	s.BlockWrites += other.BlockWrites
	s.WordReads += other.WordReads
	s.WordWrites += other.WordWrites
	s.PeakLeaseWords += other.PeakLeaseWords
	if other.PeakDiskWords > 0 {
		s.PeakDiskWords += other.PeakDiskWords
	}
}

// ShardQueryRequest is the body of POST /v1/cluster/shard/query: run
// the shard's share of one cluster query. The response is an NDJSON
// stream: the shard's owned emissions — {"v":[...]}, already sorted
// into the canonical lexicographic order — followed by one
// ShardQueryTrailer line.
type ShardQueryRequest struct {
	// Kind selects the query: "triangles" (default), "cliques", or
	// "match"; K and Pattern qualify it exactly as in serve's
	// QueryRequest.
	Kind    string `json:"kind,omitempty"`
	K       int    `json:"k,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	// Algorithm names the triangle algorithm (triangles only); a shard
	// runs only "cacheaware" and answers any other 400.
	Algorithm string `json:"algorithm,omitempty"`
	// Workers is the number of owned color tuples solved at once (0 =
	// GOMAXPROCS); the emission stream and aggregate statistics are
	// invariant in it. There is no seed: the manifest coloring is the
	// only coloring.
	Workers int `json:"workers,omitempty"`
	// Native solves the owned tuples natively: same emission bytes, zero
	// Stats.
	Native bool `json:"native,omitempty"`
	// Epoch, when set, pins the cluster epoch the coordinator believes
	// current; a mismatch is answered 409 before any work, so a fanned
	// out query never mixes shard generations. Nil skips the check
	// (direct, single-shard use).
	Epoch *uint64 `json:"epoch,omitempty"`
}

// ShardQueryTrailer is the final line of a shard query stream.
type ShardQueryTrailer struct {
	Done bool `json:"done"`
	// Delivered counts the emission lines streamed (the shard's owned
	// matches).
	Delivered uint64 `json:"delivered"`
	// Epoch is the shard's cluster epoch the query ran on.
	Epoch uint64 `json:"epoch"`
	// Vertices and Edges describe the shard's sub-image generation the
	// query ran on (shard 0 holds the full graph, so its values are the
	// cluster-wide truth).
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	// Subproblems counts the owned color tuples executed, empty ones
	// included.
	Subproblems int `json:"subproblems"`
	// Builds and CanonIOs are always 0: shards solve their tuples in
	// place, without sub-builds. The fields stay on the wire only
	// because the benchmark module still reads them.
	Builds   int    `json:"builds"`
	CanonIOs uint64 `json:"canon_ios"`
	// Stats sums the owned tuples' statistics, each taken from its
	// tuple alone: laying out the tuple's color-pair buckets plus
	// solving it, on a cold machine. The shard's native bucket index is
	// not charged. The sum is a pure function of (graph, manifest,
	// query) — invariant in Workers and in the cluster's shard count —
	// so the coordinator's aggregates are deterministic.
	Stats IOStats `json:"stats"`
	// Error reports a failure after streaming began. Empty on success.
	Error string `json:"error,omitempty"`
}

// Update phases of the two-phase commit.
const (
	// PhasePrepare stages a sub-delta under an update id: the shard
	// validates and parks it without touching its graph.
	PhasePrepare = "prepare"
	// PhaseCommit applies the staged sub-delta and advances the shard's
	// cluster epoch. Committing an already-committed update id is
	// idempotent (the remembered response is replayed), so a
	// coordinator retry cannot double-apply.
	PhaseCommit = "commit"
	// PhaseAbort drops a staged sub-delta.
	PhaseAbort = "abort"
)

// ShardUpdateRequest is the body of POST /v1/cluster/shard/update: one
// phase of a routed update's two-phase commit.
type ShardUpdateRequest struct {
	// Phase is PhasePrepare, PhaseCommit, or PhaseAbort.
	Phase string `json:"phase"`
	// UpdateID names the update across phases; the coordinator uses the
	// target epoch (current + 1), which is unique under its write lock.
	UpdateID uint64 `json:"update_id"`
	// Epoch is the cluster epoch the coordinator prepared against; a
	// mismatch at prepare is answered 409.
	Epoch uint64 `json:"epoch"`
	// Add and Remove are the shard's sub-delta: exactly the delta edges
	// whose endpoint-color minimum the shard's suffix view holds
	// (prepare only).
	Add    Edges `json:"add,omitempty"`
	Remove Edges `json:"remove,omitempty"`
}

// ShardUpdateResponse answers every update phase.
type ShardUpdateResponse struct {
	// Phase echoes the request phase.
	Phase string `json:"phase"`
	// UpdateID echoes the update id.
	UpdateID uint64 `json:"update_id"`
	// Epoch is the shard's cluster epoch after the phase (advanced by
	// commit).
	Epoch uint64 `json:"epoch"`
	// Generation is the sub-image's MVCC generation after the phase.
	Generation uint64 `json:"generation"`
	// Added, Removed, Vertices, Edges and MergeIOs mirror the shard's
	// repro.UpdateResult for a commit (zero for prepare/abort). Counts
	// are per sub-image: an edge replicated down the suffix is counted
	// by every shard holding it, so only shard 0's values are the
	// cluster-wide truth.
	Added    int64  `json:"added"`
	Removed  int64  `json:"removed"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	MergeIOs uint64 `json:"merge_ios"`
}

// ShardInfoResponse is the body of GET /v1/cluster/shard/info: the
// shard's identity, for the coordinator's dial-time handshake.
type ShardInfoResponse struct {
	// Index, Lo, Hi, Colors and Seed echo the shard's manifest entry;
	// the coordinator refuses a shard whose identity disagrees with its
	// own manifest.
	Index  int    `json:"index"`
	Lo     uint32 `json:"lo"`
	Hi     uint32 `json:"hi"`
	Colors int    `json:"colors"`
	Seed   uint64 `json:"seed"`
	// MemoryWords and BlockWords echo the manifest's simulated machine.
	MemoryWords int `json:"memory_words"`
	BlockWords  int `json:"block_words"`
	// Epoch is the shard's current cluster epoch (0 at boot; advanced
	// by each committed routed update).
	Epoch uint64 `json:"epoch"`
	// Generation, Vertices and Edges describe the sub-image being
	// served.
	Generation uint64 `json:"generation"`
	Vertices   int    `json:"vertices"`
	Edges      int64  `json:"edges"`
}

// Emission is one NDJSON data line on the cluster wire — the same
// {"v":[...]} line serve.AppendEmission encodes — in decodable form for
// the coordinator's merge.
type Emission struct {
	V []uint32 `json:"v"`
}

// CoordinatorQueryRequest is the body of POST /v1/cluster/query on a
// coordinator: the same query surface as ShardQueryRequest minus the
// epoch (the coordinator pins epochs itself), plus a Limit. Seed is
// accepted and ignored: the manifest coloring is the only coloring, so
// no seed changes a gather. The response is NDJSON: the gathered,
// k-way-merged emission lines in the canonical global order, then one
// CoordinatorTrailer line.
type CoordinatorQueryRequest struct {
	Kind      string `json:"kind,omitempty"`
	K         int    `json:"k,omitempty"`
	Pattern   string `json:"pattern,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	Native    bool   `json:"native,omitempty"`
	// Limit, when positive, ends the gathered stream cleanly after
	// Limit emissions.
	Limit uint64 `json:"limit,omitempty"`
}

// ShardRun is one shard's contribution to a gathered query, as reported
// in the coordinator trailer. Builds and CanonIOs are always 0 (see
// ShardQueryTrailer).
type ShardRun struct {
	Index       int     `json:"index"`
	Delivered   uint64  `json:"delivered"`
	Subproblems int     `json:"subproblems"`
	Builds      int     `json:"builds"`
	CanonIOs    uint64  `json:"canon_ios"`
	Stats       IOStats `json:"stats"`
}

// CoordinatorTrailer is the final line of a gathered query stream.
type CoordinatorTrailer struct {
	Done bool `json:"done"`
	// Delivered counts the gathered emission lines.
	Delivered uint64 `json:"delivered"`
	// Matches counts the cluster-wide matches enumerated (= Delivered
	// unless a Limit stopped the stream early).
	Matches uint64 `json:"matches"`
	// Epoch is the cluster epoch the query ran on; every shard's
	// trailer carried the same value.
	Epoch uint64 `json:"epoch"`
	// Vertices and Edges are the cluster-wide graph description (from
	// shard 0, the full suffix view).
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	// Subproblems and Stats aggregate the shard trailers: the
	// deterministic cluster-wide totals, invariant in the shard count
	// and Workers. CanonIOs is always 0 (see ShardQueryTrailer).
	Subproblems int     `json:"subproblems"`
	CanonIOs    uint64  `json:"canon_ios"`
	Stats       IOStats `json:"stats"`
	// Shards is the per-shard breakdown, ordered by Index.
	Shards []ShardRun `json:"shards"`
	// Error reports a failure after streaming began. Empty on success.
	Error string `json:"error,omitempty"`
}

// CoordinatorUpdateRequest is the body of POST /v1/cluster/update on a
// coordinator: a batched delta to route.
type CoordinatorUpdateRequest struct {
	Add    Edges `json:"add,omitempty"`
	Remove Edges `json:"remove,omitempty"`
}

// CoordinatorUpdateResponse reports a routed update.
type CoordinatorUpdateResponse struct {
	// Epoch is the cluster epoch now serving queries.
	Epoch uint64 `json:"epoch"`
	// Added, Removed, Vertices and Edges are the cluster-wide effective
	// change (shard 0's view).
	Added    int64 `json:"added"`
	Removed  int64 `json:"removed"`
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	// MergeIOs sums the per-shard merge costs. Unlike query statistics
	// this does scale with the cluster: suffix replication re-merges an
	// edge once per holding shard.
	MergeIOs uint64 `json:"merge_ios"`
}

// CoordinatorInfoResponse is the body of GET /v1/cluster/info.
type CoordinatorInfoResponse struct {
	Colors   int    `json:"colors"`
	Seed     uint64 `json:"seed"`
	Epoch    uint64 `json:"epoch"`
	Shards   int    `json:"shards"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
}
