package repro

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadTextEdges(t *testing.T) {
	in := `# a SNAP-style comment
% another comment style

0 1
1 2  extra-column-ignored
0	2
3 3
`
	edges, err := ReadTextEdges(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]uint32{{0, 1}, {1, 2}, {0, 2}} // self-loop 3-3 dropped
	if len(edges) != len(want) {
		t.Fatalf("got %d edges, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
	res, err := buildQuery(edges, Options{}, Query{}, nil)
	if err != nil || res.Triangles != 1 {
		t.Errorf("triangle count %d err %v", res.Triangles, err)
	}
}

func TestReadTextEdgesErrors(t *testing.T) {
	for _, bad := range []string{"1\n", "x y\n", "1 -2\n", "1 99999999999\n"} {
		if _, err := ReadTextEdges(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

// FuzzReadTextEdges mirrors FuzzReadEdgeFile for the text format:
// arbitrary input must never panic or allocate out of proportion to the
// input (the parse yields at most one edge per four input bytes — "u v"
// plus a separator — so a forged input cannot force a large slice), and
// anything that parses must survive a write-read round trip exactly.
func FuzzReadTextEdges(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("0 1\n1 2"))
	f.Add([]byte("# comment\n% comment\n\n3 4 weight-ignored\n5\t6"))
	f.Add([]byte("7 7\n"))          // self-loop, dropped
	f.Add([]byte("1"))              // too few fields
	f.Add([]byte("x y"))            // not numbers
	f.Add([]byte("4294967296 1"))   // overflows uint32
	f.Add([]byte("+1 2"))           // sign prefix is not a vertex id
	f.Add([]byte("1 2\r\n3 4\r\n")) // CRLF
	f.Add([]byte(strings.Repeat("9", 2<<20)))
	f.Fuzz(func(t *testing.T, in []byte) {
		edges, err := ReadTextEdges(bytes.NewReader(in))
		if err != nil {
			return
		}
		if max := len(in)/4 + 1; len(edges) > max {
			t.Fatalf("%d edges from %d input bytes (max %d): over-allocation", len(edges), len(in), max)
		}
		var buf bytes.Buffer
		if err := WriteTextEdges(&buf, edges); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTextEdges(&buf)
		if err != nil {
			t.Fatalf("round trip of valid parse failed: %v", err)
		}
		if len(back) != len(edges) {
			t.Fatalf("round trip length %d != %d", len(back), len(edges))
		}
		for i := range back {
			if back[i] != edges[i] {
				t.Fatalf("round trip edge %d mismatch", i)
			}
		}
	})
}

func TestTextEdgesRoundTrip(t *testing.T) {
	edges, _ := Generate("gnm:n=50,m=200", 3)
	var buf bytes.Buffer
	if err := WriteTextEdges(&buf, edges); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTextEdges(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(edges) {
		t.Fatalf("%d edges back, want %d", len(back), len(edges))
	}
	for i := range edges {
		if back[i] != edges[i] {
			t.Fatal("round trip mismatch")
		}
	}
}
