package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
)

// PartitionOptions configures Partition.
type PartitionOptions struct {
	// Dir receives the sub-images and the cluster manifest. Created if
	// missing.
	Dir string
	// Shards is the shard count S (>= 1). Each shard owns a contiguous
	// color range; S may not exceed Colors.
	Shards int
	// Colors is the cluster color count C, at most 32. A query of tuple
	// size k decomposes into one subproblem per nondecreasing color
	// k-tuple, so C governs the fan-out: small C means few, coarse
	// subproblems; large C means many fine ones. A cluster refuses a
	// query whose C^k color-tuple orderings exceed 2^22 (so 5-vertex
	// queries need C ≤ 21, 6-vertex ones C ≤ 12). 0 picks the paper's
	// c = ⌈√(E/M)⌉ for the graph's E edges and MemoryWords M, at least
	// 4 and at most 21, then at least Shards: a shard solves each
	// triangle color triple with the Lemma 2 kernel on its buckets alone,
	// which stays within the paper's bound only while E/C² = O(M), and
	// the cap of 21 keeps 5-cliques and the house pattern runnable on a
	// default partition of up to 21 shards.
	Colors int
	// Seed derives the cluster coloring — a 4-wise independent hash of
	// original vertex ids, fixed for the cluster's lifetime (0 defaults
	// to 1). It is deliberately separate from per-query seeds: every
	// shard, coordinator, and routed update of the cluster must agree
	// on it.
	Seed uint64
}

// defaultMaxColors caps the color count Partition picks when Colors is 0:
// the largest C whose C^5 color-tuple orderings stay within
// cluster.MaxOrderings, so 5-vertex queries run on a default partition.
const defaultMaxColors = 21

// PartitionShard describes one shard Partition produced.
type PartitionShard struct {
	// Index is the shard number; LoColor and HiColor bound its owned
	// color range [LoColor, HiColor).
	Index   int
	LoColor uint32
	HiColor uint32
	// Image is the sub-image path (inside PartitionOptions.Dir).
	Image string
	// Edges counts the sub-image's edges. Sub-images are suffix views —
	// shard i holds every edge whose endpoint-color minimum is at least
	// LoColor — so they overlap: shard 0 always holds the full edge
	// set, and the counts do not sum to the graph's.
	Edges int64
}

// PartitionResult reports a completed Partition.
type PartitionResult struct {
	// ManifestPath is the cluster manifest file — the argument to hand
	// to DialCluster and to each shard server.
	ManifestPath string
	// Colors and Seed echo the resolved coloring parameters.
	Colors int
	Seed   uint64
	// Shards describes the sub-images, ordered by Index.
	Shards []PartitionShard
}

// Partition splits a built graph into per-shard sub-images by color
// range and writes a cluster manifest next to them — the durable side
// of the scatter–gather cluster layer (see ARCHITECTURE.md).
//
// The cluster fixes Colors cluster colors and a coloring Seed; a
// vertex's color is a 4-wise independent hash of its original id, so it
// is stable across generations and across the differently-canonicalized
// sub-images. Shard i's sub-image is the suffix view: every edge whose
// endpoint-color minimum is >= the shard's low color. That is exactly
// the edge set needed to execute the color tuples the shard owns (those
// whose minimum color falls in its range), so every subproblem runs
// exactly once cluster-wide while storage is replicated down the
// suffix.
//
// Each sub-image is written through a disk-backed Build with the source
// handle's machine options — a valid durable image with its own footer,
// openable by Open (which is what a trienumd shard does at boot). The
// manifest (cluster.json) records the coloring, the machine, and the
// color-range → image mapping; see FORMAT.md for the file format.
//
// Partition reads the edge set from the generation current at the call.
// It fails rather than write a torn cluster if an Update lands while it
// runs — partition quiescent graphs.
func Partition(ctx context.Context, g *Graph, po PartitionOptions) (PartitionResult, error) {
	var pr PartitionResult
	if po.Dir == "" {
		return pr, fmt.Errorf("repro: Partition needs a target Dir")
	}
	if po.Shards < 1 {
		return pr, fmt.Errorf("repro: Partition needs Shards >= 1, got %d", po.Shards)
	}
	colors := po.Colors
	if colors == 0 {
		c := 4
		for c < defaultMaxColors && int64(c*c)*int64(g.opts.MemoryWords) < g.NumEdges() {
			c++
		}
		colors = max(c, po.Shards)
	}
	if colors > cluster.MaxColors {
		return pr, fmt.Errorf("repro: Partition supports at most %d colors, got %d", cluster.MaxColors, colors)
	}
	seed := po.Seed
	if seed == 0 {
		seed = 1
	}
	ranges, err := cluster.PlanRanges(colors, po.Shards)
	if err != nil {
		return pr, fmt.Errorf("repro: %w", err)
	}

	man := &cluster.Manifest{
		Version:     cluster.ManifestVersion,
		Colors:      colors,
		Seed:        seed,
		MemoryWords: g.opts.MemoryWords,
		BlockWords:  g.opts.BlockWords,
		Generation:  g.Generation(),
		Shards:      ranges,
	}
	col := man.Coloring()

	// Snapshot the edge set with its per-edge minimum colors. EdgesFunc
	// runs on its own session, so a concurrent Update cannot tear the
	// snapshot itself — but it would desynchronize the manifest from
	// the images, so detect and refuse below.
	type coloredEdge struct {
		u, v uint32
		min  uint32
	}
	var edges []coloredEdge
	verts := map[uint32]struct{}{}
	if err := g.EdgesFunc(ctx, func(u, v uint32) {
		cu, cv := col.Color(u), col.Color(v)
		if cv < cu {
			cu = cv
		}
		edges = append(edges, coloredEdge{u: u, v: v, min: cu})
		verts[u] = struct{}{}
		verts[v] = struct{}{}
	}); err != nil {
		return pr, err
	}
	if got := g.Generation(); got != man.Generation {
		return pr, fmt.Errorf("repro: graph advanced to generation %d during Partition (started at %d)", got, man.Generation)
	}
	man.Vertices = len(verts)
	man.Edges = int64(len(edges))

	if err := os.MkdirAll(po.Dir, 0o755); err != nil {
		return pr, err
	}
	for i := range man.Shards {
		lo := man.Shards[i].Lo
		var sub [][2]uint32
		for _, e := range edges {
			if e.min >= lo {
				sub = append(sub, [2]uint32{e.u, e.v})
			}
		}
		name := fmt.Sprintf("shard%d.img", i)
		path := filepath.Join(po.Dir, name)
		sg, err := Build(FromEdges(sub), Options{
			MemoryWords: g.opts.MemoryWords,
			BlockWords:  g.opts.BlockWords,
			Workers:     g.opts.Workers,
			DiskPath:    path,
		})
		if err != nil {
			return pr, fmt.Errorf("repro: building sub-image %s: %w", name, err)
		}
		man.Shards[i].Image = name
		man.Shards[i].Edges = sg.NumEdges()
		// Close promotes the image and removes the WAL: the sub-image
		// is left exactly as a checkpointed durable graph, adoptable by
		// Open.
		if err := sg.Close(); err != nil {
			return pr, fmt.Errorf("repro: finalizing sub-image %s: %w", name, err)
		}
	}

	pr.ManifestPath = filepath.Join(po.Dir, cluster.ManifestName)
	if err := man.Save(pr.ManifestPath); err != nil {
		return pr, err
	}
	pr.Colors = colors
	pr.Seed = seed
	for _, sh := range man.Shards {
		pr.Shards = append(pr.Shards, PartitionShard{
			Index:   sh.Index,
			LoColor: sh.Lo,
			HiColor: sh.Hi,
			Image:   filepath.Join(po.Dir, sh.Image),
			Edges:   sh.Edges,
		})
	}
	return pr, nil
}
