// Package cluster is the pure core of the scatter–gather cluster layer:
// the manifest that fixes a cluster-wide vertex coloring and assigns
// contiguous color ranges to shards, the color-tuple arithmetic that
// decomposes a query into per-shard subproblems, and the wire types of
// the shard and coordinator endpoints. It deliberately imports nothing
// above internal/hashing, so both the public repro package (the
// coordinator side) and internal/serve (the shard side) can share it.
//
// The design lifts the paper's decomposition across process boundaries.
// A cluster fixes C colors and a coloring seed once, at Partition time;
// a vertex's cluster color is a 4-wise independent hash of its original
// id (not its canonical rank), so it is stable across generations and
// across the differently-canonicalized sub-images. Shard i owns the
// contiguous color range [Lo_i, Hi_i), and its sub-image is the suffix
// view — every edge whose endpoint-color minimum is at least Lo_i.
// That view is exactly the edge set needed to execute every color tuple
// whose minimum lies in the owned range: a tuple's subproblem touches
// only edges with both endpoint colors in the tuple's support, and all
// of those have min color ≥ min(tuple) ≥ Lo_i. Tuples are therefore
// partitioned by their minimum color — every tuple runs exactly once
// cluster-wide — while edges are replicated down the suffix (shard 0,
// whose range starts at color 0, always holds the full edge set).
//
// The gathered stream's order is the engine's canonical global emission
// order (Query.Ordered): each shard sorts its owned emissions
// lexicographically and the coordinator k-way merges the S sorted,
// pairwise-disjoint streams, which is exactly the single-process ordered
// stream — byte-identical at every shard count and Workers value.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/hashing"
)

// ManifestVersion is the manifest codec version this package writes.
const ManifestVersion = 1

// MaxColors bounds a manifest's color count. A query of tuple size k
// fans out into multiset(C, k) subproblems cluster-wide; the bound keeps
// that fan-out (and the per-query sub-builds it implies) small.
const MaxColors = 32

// ManifestName is the conventional manifest file name Partition writes
// next to the sub-images.
const ManifestName = "cluster.json"

// Shard is one manifest entry: a contiguous color range and the
// sub-image serving it. The sub-image holds every edge with
// min-endpoint-color ≥ Lo; the shard owns (executes) the color tuples
// whose minimum falls in [Lo, Hi).
type Shard struct {
	// Index is the shard's position, 0-based and dense.
	Index int `json:"index"`
	// Lo and Hi bound the owned color range [Lo, Hi).
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
	// Image is the sub-image path, relative to the manifest file.
	Image string `json:"image"`
	// Edges counts the sub-image's edges at partition time (suffix
	// views overlap, so these do not sum to the graph's edge count).
	Edges int64 `json:"edges"`
}

// Manifest is the cluster's shared contract, written at Partition time
// and consulted by every shard and coordinator: the coloring (Colors +
// Seed fix the hash), the simulated machine the subproblems run on, and
// the color-range → shard assignment. Field order is part of the file
// format (FORMAT.md).
type Manifest struct {
	// Version is the manifest codec version (ManifestVersion).
	Version int `json:"version"`
	// Colors is C, the cluster color count. Every vertex hashes to
	// [0, C); the shard ranges partition [0, C).
	Colors int `json:"colors"`
	// Seed derives the cluster coloring (hashing.NewColoring over
	// hashing.NewRand(Seed)). Fixed for the cluster's lifetime: colors
	// must agree across shards, coordinators, and routed updates.
	Seed uint64 `json:"seed"`
	// MemoryWords and BlockWords are the simulated machine every
	// per-tuple subproblem runs on — recorded here so aggregate shard
	// IOs are a pure function of (graph, manifest, query), independent
	// of any one process's defaults.
	MemoryWords int `json:"memory_words"`
	BlockWords  int `json:"block_words"`
	// Vertices and Edges describe the partitioned graph at partition
	// time (informational; updates move the live values).
	Vertices int   `json:"vertices"`
	Edges    int64 `json:"edges"`
	// Generation is the source handle's generation at partition time.
	Generation uint64 `json:"generation"`
	// Shards maps color ranges to sub-images, ordered by Index with
	// contiguous ranges covering [0, Colors).
	Shards []Shard `json:"shards"`
}

// Validate checks the manifest's structural invariants: a known
// version, a color count in (0, MaxColors], and shard ranges that are
// dense, ordered, non-empty, and exactly cover [0, Colors).
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("cluster: unsupported manifest version %d", m.Version)
	}
	if m.Colors <= 0 || m.Colors > MaxColors {
		return fmt.Errorf("cluster: colors must be in [1, %d], got %d", MaxColors, m.Colors)
	}
	if len(m.Shards) == 0 {
		return errors.New("cluster: manifest has no shards")
	}
	if len(m.Shards) > m.Colors {
		return fmt.Errorf("cluster: %d shards exceed %d colors", len(m.Shards), m.Colors)
	}
	next := uint32(0)
	for i, sh := range m.Shards {
		if sh.Index != i {
			return fmt.Errorf("cluster: shard %d has index %d", i, sh.Index)
		}
		if sh.Lo != next || sh.Hi <= sh.Lo {
			return fmt.Errorf("cluster: shard %d range [%d, %d) does not continue at %d", i, sh.Lo, sh.Hi, next)
		}
		next = sh.Hi
	}
	if next != uint32(m.Colors) {
		return fmt.Errorf("cluster: shard ranges cover [0, %d), want [0, %d)", next, m.Colors)
	}
	return nil
}

// Coloring returns the cluster's vertex→color hash: 4-wise independent
// over the original vertex ids, so it agrees across sub-images and
// generations. All shards and coordinators of a manifest compute the
// same function.
func (m *Manifest) Coloring() hashing.Coloring {
	return hashing.NewColoring(hashing.NewRand(m.Seed), m.Colors)
}

// ShardFor returns the index of the shard owning color.
func (m *Manifest) ShardFor(color uint32) int {
	return sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].Hi > color })
}

// Holds reports whether shard i's sub-image contains an edge whose
// endpoint-color minimum is minColor — true for every shard whose range
// starts at or below it (the suffix view).
func (m *Manifest) Holds(i int, minColor uint32) bool {
	return m.Shards[i].Lo <= minColor
}

// Owns reports whether shard i executes the color tuples whose minimum
// is minColor.
func (m *Manifest) Owns(i int, minColor uint32) bool {
	return m.Shards[i].Lo <= minColor && minColor < m.Shards[i].Hi
}

// PlanRanges splits colors into shards contiguous, non-empty,
// near-equal ranges — the partition planner. It requires
// 1 ≤ shards ≤ colors.
func PlanRanges(colors, shards int) ([]Shard, error) {
	if shards < 1 || shards > colors {
		return nil, fmt.Errorf("cluster: cannot split %d colors into %d shards", colors, shards)
	}
	out := make([]Shard, shards)
	for i := range out {
		out[i] = Shard{
			Index: i,
			Lo:    uint32(i * colors / shards),
			Hi:    uint32((i + 1) * colors / shards),
		}
	}
	return out, nil
}

// Save writes the manifest to path (atomically: temp file + rename).
func (m *Manifest) Save(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads and validates a manifest written by Save.
func Load(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("cluster: manifest %s: %v", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: manifest %s: %w", path, err)
	}
	return &m, nil
}

// ImagePath resolves shard i's sub-image path against the manifest's
// own location (Image entries are relative to the manifest file).
func (m *Manifest) ImagePath(manifestPath string, i int) string {
	img := m.Shards[i].Image
	if filepath.IsAbs(img) {
		return img
	}
	return filepath.Join(filepath.Dir(manifestPath), img)
}

// OwnedTuples enumerates shard i's subproblems for tuple size k: every
// nondecreasing color tuple over [0, Colors) whose minimum (first)
// element lies in the shard's range, in lexicographic order. The tuple
// slice is reused between calls. Stopping early propagates f's error.
//
// Across all shards the owned tuple sets partition the full multiset
// family — every subproblem runs exactly once cluster-wide — and each
// emission of the graph belongs to exactly one tuple (the sorted colors
// of its vertices), which is how the gathered streams stay disjoint.
func (m *Manifest) OwnedTuples(i, k int, f func(t []uint32) error) error {
	sh := m.Shards[i]
	t := make([]uint32, k)
	var rec func(pos int, lo uint32) error
	rec = func(pos int, lo uint32) error {
		if pos == k {
			return f(t)
		}
		for c := lo; c < uint32(m.Colors); c++ {
			t[pos] = c
			if err := rec(pos+1, c); err != nil {
				return err
			}
		}
		return nil
	}
	for c := sh.Lo; c < sh.Hi; c++ {
		t[0] = c
		if err := rec(1, c); err != nil {
			return err
		}
	}
	return nil
}

// CompareTuples orders two emission tuples lexicographically (shorter
// prefixes first) — the canonical global emission order the gathered
// stream is merged into.
func CompareTuples(a, b []uint32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// SortTuples sorts n flattened k-tuples (flat has n*k elements) into
// the canonical lexicographic order, in place. The sort is total —
// duplicate tuples cannot occur in a shard's owned emissions — so the
// output bytes are a pure function of the tuple set. Fewer than two
// tuples are already sorted, so no swap buffer is sized by k for them.
func SortTuples(flat []uint32, k int) {
	if k <= 0 {
		return
	}
	n := len(flat) / k
	if n < 2 {
		return
	}
	sort.Sort(&tupleSorter{flat: flat, k: k, n: n, tmp: make([]uint32, k)})
}

type tupleSorter struct {
	flat []uint32
	k, n int
	tmp  []uint32
}

func (s *tupleSorter) Len() int { return s.n }
func (s *tupleSorter) Less(i, j int) bool {
	return CompareTuples(s.flat[i*s.k:(i+1)*s.k], s.flat[j*s.k:(j+1)*s.k]) < 0
}
func (s *tupleSorter) Swap(i, j int) {
	a, b := s.flat[i*s.k:(i+1)*s.k], s.flat[j*s.k:(j+1)*s.k]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}
