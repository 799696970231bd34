// Command trienum enumerates the triangles — or, with -k / -pattern, the
// k-cliques and pattern embeddings of Section 6 — of a graph on a
// simulated external-memory machine and reports I/O statistics.
//
// Usage:
//
//	trienum -gen clique:n=100 -algo cacheaware -m 65536 -b 128
//	trienum -in graph.bin -algo oblivious -list
//	trienum -gen gnm:n=10000,m=80000 -algo all
//	trienum -gen powerlaw:n=12000,m=64000 -workers 8 -workerstats
//	trienum -gen planted:n=5000,m=20000,k=12 -k 4
//	trienum -gen gnm:n=2000,m=16000 -pattern diamond -timeout 5s
//	trienum -gen gnm:n=2000,m=16000 -update "+1-2,+2-3,+1-3,-0-5"
//	trienum -gen gnm:n=2000,m=16000 -disk graph.img   # build a durable image
//	trienum -open graph.img -algo all                  # adopt it later
//
// The graph is built once (one O(sort(E)) canonicalization, repro.Build)
// and every requested query runs against the same handle, so `-algo all`
// and mixed triangle/clique/pattern invocations pay the build exactly
// once — the canonIOs column repeats the one-time cost.
//
// -open adopts an existing canonical image (one written by a previous
// -disk run, promoted on exit) via repro.Open instead of building: no
// canonicalization at all — the open line reports the adoption scan and
// any write-ahead-log records replayed after a crash — and the queries
// run immediately. -open is mutually exclusive with -gen/-in/-disk, and
// -b must match the image's block size (its default is adopted from the
// image).
//
// -update applies a batched edge delta to the handle before the queries
// run: a comma-separated list of "+u-v" (add) and "-u-v" (remove) ops,
// merged against the frozen canonical image as one repro.Delta and
// installed as a new generation (the update line reports the effective
// changes and the merge's I/O cost, which for small deltas is well below
// re-canonicalizing). Queries then run on the updated generation,
// byte-identical to a fresh build of the updated edge set.
//
// For the cacheaware and deterministic algorithms, -workers runs the
// independent subproblems and the sort(E) substrate (canonicalization and
// color-pair ordering, via the parallel external-memory sorts of
// internal/emsort) on a worker pool, and -k and -pattern run their color
// tuples on the same pool; the streams and aggregated I/O statistics are
// identical at every worker count, only wall-clock time changes. The scaling is measured by BenchmarkE13ParallelWorkers /
// BenchmarkE14ParallelDeterministic (engine), BenchmarkE15ParallelSort
// (sorts standalone) and BenchmarkE16ParallelPipeline (sorts
// in-pipeline); see EXPERIMENTS.md at the repo root.
//
// -timeout arms a context deadline: queries stop cooperatively (between
// subproblems), report the partial counts, and exit non-zero.
//
// -native runs every query natively on the canonical image (the fast
// path, repro.ModeNative): same decomposition, same results in the same
// order, but the simulated block-transfer accounting is compiled out —
// the IOs columns print 0. Use it to time the algorithms; drop it to
// measure them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		gen     = flag.String("gen", "", "graph spec, e.g. clique:n=100 or gnm:n=1000,m=8000 (see repro.Generate)")
		in      = flag.String("in", "", "edge file to load (as written by graphgen)")
		algo    = flag.String("algo", "cacheaware", "algorithm name or 'all'")
		m       = flag.Int("m", 1<<16, "internal memory size M in words")
		b       = flag.Int("b", 1<<7, "block size B in words")
		seed    = flag.Uint64("seed", 1, "seed for randomized algorithms and generators")
		list    = flag.Bool("list", false, "print each triangle/clique/embedding")
		disk    = flag.String("disk", "", "back external memory with this file instead of RAM")
		workers = flag.Int("workers", 0, "parallel workers for cacheaware/deterministic subproblems, -k/-pattern color tuples and sorts (0 = one per CPU)")
		wstats  = flag.Bool("workerstats", false, "print the per-worker I/O breakdown")
		kFlag   = flag.Int("k", 0, "also enumerate k-cliques (k >= 3) via the Section 6 extension")
		pattern = flag.String("pattern", "", "also enumerate a predefined pattern: triangle, path3, cycle4, diamond, k4, star3, house")
		timeout = flag.Duration("timeout", time.Duration(0), "cancel queries cooperatively after this duration (0 = none)")
		update  = flag.String("update", "", `apply an edge delta before querying: comma-separated "+u-v" adds and "-u-v" removes`)
		open    = flag.String("open", "", "adopt an existing canonical image instead of building (see repro.Open)")
		native  = flag.Bool("native", false, "run queries natively on the canonical image: same results, no simulated I/O accounting (IOs print as 0)")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var g *repro.Graph
	if *open != "" {
		// Adopt a durable image: no canonicalization, replay the WAL if a
		// crash left one behind.
		if *gen != "" || *in != "" || *disk != "" {
			fatal(fmt.Errorf("trienum: -open is mutually exclusive with -gen/-in/-disk"))
		}
		blockWords := *b
		if !flagSet("b") {
			blockWords = 0 // adopt the image's block size
		}
		var ores repro.OpenResult
		var err error
		g, ores, err = repro.Open(*open, repro.Options{
			MemoryWords: *m,
			BlockWords:  blockWords,
			Workers:     *workers,
			Seed:        *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s generation=%d V=%d E=%d adoptIOs=%d replayed=%d replayIOs=%d cleaned=%d\n",
			"open", ores.Generation, ores.Vertices, ores.Edges, ores.AdoptIOs, ores.Replayed, ores.ReplayIOs, ores.Cleaned)
	} else {
		src, err := edgeSource(*gen, *in)
		if err != nil {
			fatal(err)
		}
		// One build, many queries: the canonicalization runs exactly once.
		g, err = repro.Build(src, repro.Options{
			MemoryWords: *m,
			BlockWords:  *b,
			Workers:     *workers,
			Seed:        *seed,
			DiskPath:    *disk,
		})
		if err != nil {
			fatal(err)
		}
	}
	defer g.Close()

	if *update != "" {
		delta, err := parseDelta(*update)
		if err != nil {
			fatal(err)
		}
		res, err := g.Update(ctx, delta)
		if err != nil {
			fatal(fmt.Errorf("update: %w", err))
		}
		fmt.Printf("%-14s generation=%d added=%d removed=%d V=%d E=%d mergeIOs=%d\n",
			"update", res.Generation, res.Added, res.Removed, res.Vertices, res.Edges, res.MergeIOs)
	}

	algos := []repro.Algorithm{}
	if *algo == "all" {
		algos = repro.Algorithms()
	} else {
		a, err := repro.ParseAlgorithm(*algo)
		if err != nil {
			fatal(err)
		}
		algos = append(algos, a)
	}

	mode := repro.ModeSimulated
	if *native {
		mode = repro.ModeNative
	}

	for _, a := range algos {
		q := repro.Query{Algorithm: a, Seed: *seed, Mode: mode}
		var emit func(x, y, z uint32)
		if *list {
			emit = func(x, y, z uint32) { fmt.Printf("%d %d %d\n", x, y, z) }
		}
		res, err := g.TrianglesFunc(ctx, q, emit)
		if err != nil {
			fatal(fmt.Errorf("%v after %d triangles: %w", a, res.Matches, err))
		}
		fmt.Printf("%-14s V=%-8d E=%-9d triangles=%-10d IOs=%-9d (reads=%d writes=%d) canonIOs=%d peakDisk=%d words workers=%d\n",
			a, res.Vertices, res.Edges, res.Triangles, res.Stats.IOs(),
			res.Stats.BlockReads, res.Stats.BlockWrites, res.CanonIOs, res.Stats.PeakDiskWords, res.Workers)
		if *wstats {
			for i, w := range res.WorkerStats {
				fmt.Printf("  worker %-3d IOs=%-9d (reads=%d writes=%d)\n", i, w.IOs(), w.BlockReads, w.BlockWrites)
			}
		}
	}

	if *kFlag > 0 {
		emit := listEmit(*list)
		res, err := g.CliquesFunc(ctx, *kFlag, repro.Query{Seed: *seed, Mode: mode}, emit)
		if err != nil {
			fatal(fmt.Errorf("k=%d after %d cliques: %w", *kFlag, res.Matches, err))
		}
		fmt.Printf("%-14s V=%-8d E=%-9d cliques=%-12d IOs=%-9d (reads=%d writes=%d) canonIOs=%d colors=%d subproblems=%d (largest %d edges)\n",
			fmt.Sprintf("k=%d-clique", *kFlag), res.Vertices, res.Edges, res.Matches, res.Stats.IOs(),
			res.Stats.BlockReads, res.Stats.BlockWrites, res.CanonIOs, res.Colors, res.Subproblems, res.MaxSubproblem)
	}

	if *pattern != "" {
		p, err := repro.ParsePattern(*pattern)
		if err != nil {
			fatal(err)
		}
		emit := listEmit(*list)
		res, err := g.MatchFunc(ctx, p, repro.Query{Seed: *seed, Mode: mode}, emit)
		if err != nil {
			fatal(fmt.Errorf("pattern %s after %d embeddings: %w", p, res.Matches, err))
		}
		fmt.Printf("%-14s V=%-8d E=%-9d copies=%-13d IOs=%-9d (reads=%d writes=%d) canonIOs=%d |Aut|=%d subproblems=%d (largest %d edges)\n",
			p, res.Vertices, res.Edges, res.Matches, res.Stats.IOs(),
			res.Stats.BlockReads, res.Stats.BlockWrites, res.CanonIOs, p.Automorphisms(), res.Subproblems, res.MaxSubproblem)
	}
}

func listEmit(list bool) func([]uint32) {
	if !list {
		return nil
	}
	return func(vs []uint32) {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(parts, " "))
	}
}

// parseDelta parses the -update spec: comma-separated ops, each "+u-v"
// (add the edge {u, v}) or "-u-v" (remove it).
func parseDelta(spec string) (repro.Delta, error) {
	var d repro.Delta
	for _, op := range strings.Split(spec, ",") {
		op = strings.TrimSpace(op)
		if len(op) < 4 || (op[0] != '+' && op[0] != '-') {
			return repro.Delta{}, fmt.Errorf("trienum: bad -update op %q (want +u-v or -u-v)", op)
		}
		us, vs, ok := strings.Cut(op[1:], "-")
		if !ok {
			return repro.Delta{}, fmt.Errorf("trienum: bad -update op %q (want +u-v or -u-v)", op)
		}
		u, err := strconv.ParseUint(us, 10, 32)
		if err != nil {
			return repro.Delta{}, fmt.Errorf("trienum: bad -update op %q: %v", op, err)
		}
		v, err := strconv.ParseUint(vs, 10, 32)
		if err != nil {
			return repro.Delta{}, fmt.Errorf("trienum: bad -update op %q: %v", op, err)
		}
		e := repro.Edge{uint32(u), uint32(v)}
		if op[0] == '+' {
			d.Add = append(d.Add, e)
		} else {
			d.Remove = append(d.Remove, e)
		}
	}
	return d, nil
}

func edgeSource(gen, in string) (repro.Source, error) {
	switch {
	case gen != "" && in != "":
		return nil, fmt.Errorf("trienum: -gen and -in are mutually exclusive")
	case gen != "":
		return repro.FromSpec(gen), nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		// The file stays open until Build has consumed it; Build reads
		// eagerly, so closing on main's exit is fine.
		if strings.HasSuffix(in, ".txt") || strings.HasSuffix(in, ".edges") {
			return repro.FromTextReader(f), nil
		}
		return repro.FromReader(f), nil
	default:
		return nil, fmt.Errorf("trienum: need -gen or -in (try -gen clique:n=50)")
	}
}

// flagSet reports whether the named flag was given on the command line
// (as opposed to holding its default).
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
