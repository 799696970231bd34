package repro

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/graph"
)

// readerState reports the handle's registered readers and the current
// generation's references (1 is the handle's own current pointer).
func readerState(g *Graph) (active, refs int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active, g.cur.refs
}

// closeWithin closes g, failing the test if Close does not return in time
// (a reader whose pin was never released makes Close wait forever).
func closeWithin(t *testing.T, g *Graph) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- g.Close() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatal("Close did not return: a reader's pin was never released")
		return nil
	}
}

// TestQuerySessionOpenFailureUnpins makes the first query's session fail
// to open — a directory occupies its scratch file <DiskPath>.q1 — and
// checks that the failure releases the query's pin: the handle keeps
// serving, and Close neither waits for the failed reader nor reports an
// error.
func TestQuerySessionOpenFailureUnpins(t *testing.T) {
	opts := Options{MemoryWords: 1 << 10, BlockWords: 1 << 4, Workers: 2, Seed: 3}
	g, path, _ := buildDiskGraph(t, "gnm:n=120,m=700", opts.Seed, opts)
	ref, err := Build(FromSpec("gnm:n=120,m=700"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.TrianglesFunc(context.Background(), Query{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".q1", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TrianglesFunc(context.Background(), Query{}, nil); err == nil {
		t.Fatal("query with its scratch path occupied by a directory succeeded")
	}
	if active, refs := readerState(g); active != 0 || refs != 1 {
		t.Fatalf("after the failed query: active=%d refs=%d, want 0 and 1", active, refs)
	}
	res, err := g.TrianglesFunc(context.Background(), Query{}, nil)
	if err != nil {
		t.Fatalf("query after the failed one: %v", err)
	}
	if res.Triangles != want.Triangles || res.Stats != want.Stats {
		t.Fatalf("query after the failed one: %d triangles, %+v; a memory-backed build: %d, %+v",
			res.Triangles, res.Stats, want.Triangles, want.Stats)
	}
	if err := closeWithin(t, g); err != nil {
		t.Fatalf("Close after a failed session open: %v", err)
	}
}

// TestUpdateSessionOpenFailureUnpins makes the first Update's merge
// session fail to open — a directory occupies its scratch file
// <DiskPath>.u1 — and checks that nothing is installed or logged, the
// pin is released, and the next Update goes through.
func TestUpdateSessionOpenFailureUnpins(t *testing.T) {
	g, path, _ := buildDiskGraph(t, "gnm:n=120,m=700", 5, Options{MemoryWords: 1 << 10, BlockWords: 1 << 4, Workers: 2})
	if err := os.Mkdir(path+".u1", 0o755); err != nil {
		t.Fatal(err)
	}
	d := Delta{Add: []Edge{{500, 501}, {500, 502}, {501, 502}}}
	if _, err := g.Update(context.Background(), d); err == nil {
		t.Fatal("update with its scratch path occupied by a directory succeeded")
	}
	if got := g.Generation(); got != 0 {
		t.Fatalf("failed update left generation %d, want 0", got)
	}
	wal, err := os.ReadFile(walPath(path))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if recs, _ := graph.ScanWAL(wal); len(recs) != 0 {
		t.Fatalf("failed update logged %d WAL records, want none", len(recs))
	}
	if active, refs := readerState(g); active != 0 || refs != 1 {
		t.Fatalf("after the failed update: active=%d refs=%d, want 0 and 1", active, refs)
	}
	res, err := g.Update(context.Background(), d)
	if err != nil {
		t.Fatalf("update after the failed one: %v", err)
	}
	if res.Generation != 1 || res.Added != 3 {
		t.Fatalf("update after the failed one: %+v, want generation 1 with 3 edges added", res)
	}
	if err := closeWithin(t, g); err != nil {
		t.Fatalf("Close after a failed update: %v", err)
	}
}
