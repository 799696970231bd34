package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// The image lifecycle: every generation is written as a complete image to
// its own file <DiskPath>.g<n> and made durable by renaming that file over
// DiskPath. These tests pin the three consequences and the two crash
// states a promotion can leave behind.

// TestUpdateGenerationFileIsCompleteImage: an update's generation file
// carries its footer, so it is an image Open could adopt as it stands.
func TestUpdateGenerationFileIsCompleteImage(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	defer g.Close()
	if _, err := g.Update(nil, Delta{Add: [][2]uint32{{900, 901}}}); err != nil {
		t.Fatal(err)
	}
	meta, _, _, err := readImageMeta(path + ".g1")
	if err != nil {
		t.Fatalf("generation 1 file: %v", err)
	}
	if meta.Generation != 1 || meta.EdgesLen != g.NumEdges() || meta.CanonIOs != g.CanonIOs() {
		t.Fatalf("generation 1 footer says generation %d, %d edges, CanonIOs %d; the handle is at 1, %d, %d",
			meta.Generation, meta.EdgesLen, meta.CanonIOs, g.NumEdges(), g.CanonIOs())
	}
}

// TestCheckpointRenamesGenerationFile: a Checkpoint moves the current
// generation's file to DiskPath instead of copying it.
func TestCheckpointRenamesGenerationFile(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	defer g.Close()
	if _, err := g.Update(nil, Delta{Add: [][2]uint32{{900, 901}}}); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path + ".g1")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".g1"); !os.IsNotExist(err) {
		t.Fatalf("generation 1 file survives its promotion: %v", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("the image at DiskPath is not the generation 1 file")
	}
}

// TestPinnedQueryReadsAcrossPromotions: a query pinned on a generation
// keeps reading it while a Checkpoint renames its file over DiskPath and
// a later one replaces that file with a newer generation's, and it
// delivers the stream an unpinned run of the generation delivers.
func TestPinnedQueryReadsAcrossPromotions(t *testing.T) {
	opts := Options{MemoryWords: 1 << 10, BlockWords: 1 << 5, Workers: 1}
	g, path, _ := buildDiskGraph(t, "gnm:n=100,m=500", 8, opts)
	defer g.Close()
	if _, err := g.Update(nil, Delta{Add: [][2]uint32{{700, 701}}}); err != nil {
		t.Fatal(err)
	}
	var want []Triangle
	if _, err := g.TrianglesFunc(nil, Query{Seed: 2}, func(a, b, c uint32) { want = append(want, Triangle{a, b, c}) }); err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before the deferred Close, which waits for the query
	done := make(chan error, 1)
	var got []Triangle
	go func() {
		_, err := g.TrianglesFunc(nil, Query{Seed: 2}, func(a, b, c uint32) {
			if got = append(got, Triangle{a, b, c}); len(got) == 1 {
				close(started)
				<-gate
			}
		})
		done <- err
	}()
	<-started
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Update(nil, Delta{Add: [][2]uint32{{702, 703}}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-done; err != nil {
		t.Fatalf("pinned query: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the pinned query delivered %d triangles, the unpinned run %d, or a different order", len(got), len(want))
	}
	if leftovers, _ := filepath.Glob(path + ".g*"); len(leftovers) > 0 {
		t.Fatalf("generation files survive their promotion: %v", leftovers)
	}
}

// TestBuildLeavesPreviousImageIntact: a Build at a path that holds an
// image writes its own image beside it, so a reader of the old file keeps
// reading the old graph.
func TestBuildLeavesPreviousImageIntact(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	g, path, model := buildDiskGraph(t, "gnm:n=60,m=240", 7, opts)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	opts.DiskPath = path
	g2, err := Build(FromSpec("gnm:n=80,m=400"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.NumEdges() == int64(len(model)) {
		t.Fatal("the two graphs have the same edge count; the test cannot tell them apart")
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, graph.FooterSize)
	if st.Size() < graph.FooterSize {
		t.Fatalf("the old image shrank to %d bytes", st.Size())
	}
	if _, err := f.ReadAt(buf, st.Size()-graph.FooterSize); err != nil {
		t.Fatal(err)
	}
	meta, err := graph.DecodeFooter(buf)
	if err != nil {
		t.Fatalf("the old image's footer: %v", err)
	}
	if meta.EdgesLen != int64(len(model)) {
		t.Fatalf("the old image's footer describes %d edges, the old graph has %d", meta.EdgesLen, len(model))
	}
}

// TestPromotionCrashStates opens the two states a crash inside a
// promotion leaves, in the crash suite's byte-copy model: before the
// rename, DiskPath holds generation 0 beside the complete file of
// generation n and the full log; after it, DiskPath holds generation n
// and the log still holds records 1..n.
func TestPromotionCrashStates(t *testing.T) {
	opts := Options{MemoryWords: 1 << 11, BlockWords: 1 << 5, Workers: 1}
	img, wal, models := crashScenario(t, opts)
	n := len(models) - 1

	// The complete image of generation n: the recovered handle's own file.
	ro, or, path := openCrashCopy(t, img, wal, opts)
	if or.Generation != uint64(n) {
		ro.Close()
		t.Fatalf("recovered to generation %d, want %d", or.Generation, n)
	}
	genImg, err := os.ReadFile(fmt.Sprintf("%s.g%d", path, n))
	if err != nil {
		ro.Close()
		t.Fatal(err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	// writeState lays a crash state down in a fresh directory.
	writeState := func(files map[string][]byte) string {
		path := filepath.Join(t.TempDir(), "crash.img")
		for suffix, data := range files {
			if err := os.WriteFile(path+suffix, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	opts.DiskPath = ""

	// Before the rename: the stale generation file is removed and the log
	// replays onto generation 0.
	path = writeState(map[string][]byte{"": img, ".wal": wal, fmt.Sprintf(".g%d", n): genImg})
	ro, or, err = Open(path, opts)
	if err != nil {
		t.Fatalf("open before the rename: %v", err)
	}
	if or.Cleaned != 1 || or.Generation != uint64(n) || or.Replayed != n {
		ro.Close()
		t.Fatalf("open before the rename: %+v, want 1 file cleaned and %d records replayed", or, n)
	}
	assertQueriesMatchFresh(t, "before-rename", ro, models[n], opts)
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	// After the rename: the log's records are all at or below the image's
	// generation, so nothing replays.
	path = writeState(map[string][]byte{"": genImg, ".wal": wal})
	ro, or, err = Open(path, opts)
	if err != nil {
		t.Fatalf("open after the rename: %v", err)
	}
	if or.Generation != uint64(n) || or.Replayed != 0 {
		ro.Close()
		t.Fatalf("open after the rename: %+v, want generation %d with nothing replayed", or, n)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	assertImageIdenticalToFresh(t, "after-rename", path, models[n], opts)
}
