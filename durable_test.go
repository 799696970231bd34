package repro

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildDiskGraph builds a disk-backed graph at a fresh path and returns
// the handle, the path, and the model edge set.
func buildDiskGraph(t *testing.T, spec string, seed uint64, opts Options) (*Graph, string, edgeSet) {
	t.Helper()
	edges, err := Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.img")
	opts.DiskPath = path
	opts.Seed = seed
	g, err := Build(FromEdges(edges), opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, path, newEdgeSet(edges)
}

// TestOpenServesWithoutCanonicalization is the tentpole contract of the
// reopen path: Open adopts a closed Build image without re-paying the
// O(sort(E)) canonicalization — the adopted generation reports
// CanonIOs = 0 and only the O(scan(V)) rank-table adoption is charged —
// and every query of the suite is byte-identical to a fresh Build.
func TestOpenServesWithoutCanonicalization(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, model := buildDiskGraph(t, "gnm:n=150,m=900", 13, opts)
	buildIOs := g.CanonIOs()
	wantV, wantE := g.NumVertices(), g.NumEdges()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if buildIOs == 0 {
		t.Fatal("build reported zero CanonIOs; the comparison below is vacuous")
	}

	ro, or, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.CanonIOs() != 0 {
		t.Fatalf("adopted image reports CanonIOs=%d, want 0 (build paid %d)", ro.CanonIOs(), buildIOs)
	}
	if or.Generation != 0 || or.Replayed != 0 || or.ReplayIOs != 0 {
		t.Fatalf("clean reopen reports %+v, want generation 0 with nothing replayed", or)
	}
	if or.Vertices != wantV || or.Edges != wantE {
		t.Fatalf("reopen reports V=%d E=%d, want V=%d E=%d", or.Vertices, or.Edges, wantV, wantE)
	}
	if or.AdoptIOs == 0 {
		t.Fatal("adopting the rank table reported zero IOs; the scan must be accounted")
	}
	if or.AdoptIOs >= buildIOs {
		t.Fatalf("adoption cost %d IOs is not below the build's %d", or.AdoptIOs, buildIOs)
	}

	// Every query — emission transcripts, Results, worker-stat sums, at
	// Workers 1 and 4 — matches a fresh Build (CanonIOs is the documented
	// divergence and is normalized inside the helper).
	assertQueriesMatchFresh(t, "reopen", ro, model, opts)

	// Options round-trip: BlockWords 0 adopts the image's layout.
	roOpts := ro.Options()
	if roOpts.BlockWords != opts.BlockWords || roOpts.DiskPath != path {
		t.Fatalf("reopened options %+v do not adopt the image", roOpts)
	}
}

// TestOpenAdoptsBlockWords pins that Open with BlockWords 0 adopts the
// image's layout block size instead of the package default.
func TestOpenAdoptsBlockWords(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	ro, _, err := Open(path, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got := ro.Options().BlockWords; got != 1<<5 {
		t.Fatalf("adopted BlockWords %d, want %d", got, 1<<5)
	}
	if _, err := ro.TrianglesFunc(nil, Query{Workers: 1}, func(a, b, c uint32) {}); err != nil {
		t.Fatal(err)
	}
}

// TestClosePromotesLatestGeneration: after updates, Close atomically
// promotes the current generation over the Build image and removes the
// write-ahead log, so the next Open adopts the latest generation with
// nothing to replay.
func TestClosePromotesLatestGeneration(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, model := buildDiskGraph(t, "gnm:n=150,m=900", 13, opts)
	edges := model.slice()
	var lastGen uint64
	for i, d := range updateScenario(edges) {
		res, err := g.Update(nil, d)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		model.apply(d)
		lastGen = res.Generation
	}
	if lastGen != 3 {
		t.Fatalf("scenario installed generation %d, want 3", lastGen)
	}
	if _, err := os.Stat(walPath(path)); err != nil {
		t.Fatalf("write-ahead log missing while updates are unpromoted: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath(path)); !os.IsNotExist(err) {
		t.Fatalf("write-ahead log survives a clean Close: %v", err)
	}

	ro, or, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if or.Generation != lastGen || or.Replayed != 0 {
		t.Fatalf("reopen after promotion reports %+v, want generation %d with nothing replayed", or, lastGen)
	}
	assertQueriesMatchFresh(t, "promoted", ro, model, opts)
}

// TestCheckpointPromotesAndTruncates: a mid-life Checkpoint durably
// promotes the current generation and empties the log, bounding replay;
// updates and queries keep working afterwards.
func TestCheckpointPromotesAndTruncates(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, model := buildDiskGraph(t, "gnm:n=150,m=900", 13, opts)
	defer g.Close()
	edges := model.slice()
	deltas := updateScenario(edges)

	for _, d := range deltas[:2] {
		if _, err := g.Update(nil, d); err != nil {
			t.Fatal(err)
		}
		model.apply(d)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(walPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("log holds %d bytes after checkpoint, want empty", st.Size())
	}

	// The image now holds generation 2: a copy opens at it directly.
	snap := filepath.Join(t.TempDir(), "snap.img")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ro, or, err := Open(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if or.Generation != 2 || or.Replayed != 0 {
		t.Fatalf("checkpoint snapshot opens at %+v, want generation 2, nothing replayed", or)
	}
	assertQueriesMatchFresh(t, "checkpoint-snapshot", ro, model, opts)
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	// An idempotent re-checkpoint is a no-op; the handle keeps updating.
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Update(nil, deltas[2]); err != nil {
		t.Fatal(err)
	}
	model.apply(deltas[2])
	assertQueriesMatchFresh(t, "post-checkpoint-update", g, model, opts)
}

// TestCheckpointErrors: memory-backed handles and closed handles refuse.
func TestCheckpointErrors(t *testing.T) {
	mem, err := Build(FromSpec("gnm:n=40,m=160"), Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a memory-backed handle succeeded")
	}
	mem.Close()

	g, _, _ := buildDiskGraph(t, "gnm:n=40,m=160", 3, Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1})
	g.Close()
	if err := g.Checkpoint(); err != ErrGraphClosed {
		t.Fatalf("Checkpoint after Close: %v, want ErrGraphClosed", err)
	}
}

// TestOpenCleansStaleTempFiles: scratch, generation, and checkpoint
// leftovers of a crashed process are removed before adoption.
func TestOpenCleansStaleTempFiles(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	stale := []string{path + ".q3", path + ".u7", path + ".g2", path + ".ckpt"}
	for _, s := range stale {
		if err := os.WriteFile(s, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ro, or, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if or.Cleaned != len(stale) {
		t.Fatalf("Open cleaned %d files, want %d", or.Cleaned, len(stale))
	}
	for _, s := range stale {
		if _, err := os.Stat(s); !os.IsNotExist(err) {
			t.Fatalf("stale file %s survived Open", s)
		}
	}
}

// TestStaleSweepKeepsForeignFiles: the stale-file sweep of Open and
// Build removes only the names a handle writes (.q<n>, .u<n>, .g<n>,
// .ckpt), never a file whose name merely continues the image's.
func TestStaleSweepKeepsForeignFiles(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	stale := []string{path + ".q3", path + ".u7", path + ".g2", path + ".ckpt"}
	foreign := []string{path + ".gz", path + ".quarantine", path + ".utf8", path + ".g1.bak", path + ".ckpt.old"}
	for _, s := range append(stale, foreign...) {
		if err := os.WriteFile(s, []byte("not ours"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keptForeign := func(after string) {
		t.Helper()
		for _, s := range foreign {
			if _, err := os.Stat(s); err != nil {
				t.Errorf("%s removed %s: %v", after, filepath.Base(s), err)
			}
		}
	}
	ro, or, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if or.Cleaned != len(stale) {
		t.Errorf("Open cleaned %d files, want %d", or.Cleaned, len(stale))
	}
	for _, s := range stale {
		if _, err := os.Stat(s); !os.IsNotExist(err) {
			t.Errorf("stale file %s survived Open", filepath.Base(s))
		}
	}
	keptForeign("Open")

	opts.DiskPath = path
	rebuilt, err := Build(FromSpec("gnm:n=60,m=240"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Close(); err != nil {
		t.Fatal(err)
	}
	keptForeign("Build")

	// An image directory named like a glob pattern sweeps only itself,
	// not the directory the pattern would match.
	dir := filepath.Join(t.TempDir(), "img[1]")
	neighbor := filepath.Join(filepath.Dir(dir), "img1", "graph.img.q3")
	for _, d := range []string{dir, filepath.Dir(neighbor)} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(neighbor, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.DiskPath = filepath.Join(dir, "graph.img")
	if rebuilt, err = Build(FromSpec("gnm:n=60,m=240"), opts); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(neighbor); err != nil {
		t.Errorf("Build in %s removed %s: %v", dir, neighbor, err)
	}
}

// TestOpenErrors walks the rejection paths: missing file, truncated
// image, corrupted footer, garbage file, BlockWords mismatch, and a
// conflicting Options.DiskPath.
func TestOpenErrors(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name string
		path string
		opts Options
		want string
	}{
		{"missing", filepath.Join(dir, "nope.img"), opts, ""},
		{"empty-path", "", opts, "path"},
		{"truncated-tail", write("trunc.img", img[:len(img)-9]), opts, "not a canonical image"},
		{"truncated-body", write("body.img", append(append([]byte(nil), img[:len(img)/2]...), img[len(img)-64:]...)), opts, "layout says"},
		{"garbage", write("junk.img", make([]byte, 4096)), opts, "magic"},
		{"bad-footer", write("foot.img", flipByte(img, len(img)-30)), opts, "checksum"},
		{"bad-block-words", path, Options{MemoryWords: 1 << 12, BlockWords: 1 << 6, Workers: 1}, "BlockWords"},
		{"conflicting-diskpath", path, Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, DiskPath: path + ".other"}, "conflicts"},
	}
	for _, tc := range cases {
		ro, _, err := Open(tc.path, tc.opts)
		if err == nil {
			ro.Close()
			t.Fatalf("%s: Open succeeded", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The pristine image still opens after all the rejected copies.
	ro, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// TestOpenRejectsCorruptVertexTable: a bit flipped inside the image's
// ByDeg artifact breaks the strict rank order the adoption scan verifies.
func TestOpenRejectsCorruptVertexTable(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	meta, lay, _, err := readImageMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Zero the second ByDeg word: (deg<<32|id) records are strictly
	// increasing in rank order, so a zero at rank 1 must trip the scan.
	off := (lay.ByDeg + 1) * 8
	for i := 0; i < 8; i++ {
		img[off+int64(i)] = 0
	}
	bad := filepath.Join(t.TempDir(), "bad.img")
	if err := os.WriteFile(bad, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if ro, _, err := Open(bad, opts); err == nil {
		ro.Close()
		t.Fatalf("corrupt vertex table (gen %d) adopted cleanly", meta.Generation)
	} else if !strings.Contains(err.Error(), "rank order") {
		t.Fatalf("corrupt vertex table: %v, want rank-order error", err)
	}
}

// TestBuildDropsPreviousDurableLife: rebuilding at a path that has a
// write-ahead log and generation leftovers from a previous life must
// remove them — stale records must never replay onto the new image.
func TestBuildDropsPreviousDurableLife(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, model := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	if _, err := g.Update(nil, Delta{Add: [][2]uint32{{900, 901}}}); err != nil {
		t.Fatal(err)
	}
	// Crash: the WAL holds one record, the image is still generation 0.
	walBytes, err := os.ReadFile(walPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(walBytes) == 0 {
		t.Fatal("effective update left no WAL record")
	}
	g.Close()
	if err := os.WriteFile(walPath(path), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".g9", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	opts.DiskPath = path
	g2, err := Build(FromEdges(model.slice()), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if _, err := os.Stat(walPath(path)); !os.IsNotExist(err) {
		t.Fatalf("stale WAL survived a rebuild: %v", err)
	}
	if _, err := os.Stat(path + ".g9"); !os.IsNotExist(err) {
		t.Fatal("stale generation file survived a rebuild")
	}
	if g2.Generation() != 0 {
		t.Fatalf("rebuilt handle at generation %d, want 0", g2.Generation())
	}
}
