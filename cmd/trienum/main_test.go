package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestResultLinesReportWorkers runs a triangle, a clique and a pattern
// query in one invocation and checks that every result line ends with the
// worker count and that -workerstats prints one breakdown line per worker
// under each of them.
func TestResultLinesReportWorkers(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-gen", "planted:n=300,m=1800,k=8", "-m", "256", "-b", "16",
		"-k", "4", "-pattern", "diamond", "-workers", "2", "-workerstats"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	labels := []string{"cacheaware ", "k=4-clique ", "diamond "}
	if len(lines) != 3*len(labels) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), 3*len(labels), out.String())
	}
	for i, label := range labels {
		line := lines[3*i]
		if !strings.HasPrefix(line, label) || !strings.HasSuffix(line, " workers=2") {
			t.Errorf("line %d = %q, want a %q result ending in workers=2", 3*i, line, strings.TrimSpace(label))
		}
		for w := range 2 {
			want := fmt.Sprintf("  worker %-3d IOs=", w)
			if got := lines[3*i+1+w]; !strings.HasPrefix(got, want) {
				t.Errorf("%s: worker line %d = %q, want prefix %q", strings.TrimSpace(label), w, got, want)
			}
		}
	}
}

// TestResultLineLayout pins the shared line layout: the count column and
// the kind-specific columns sit before the trailing worker count, and no
// breakdown follows without -workerstats.
func TestResultLineLayout(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-gen", "clique:n=6", "-m", "256", "-b", "16", "-k", "4", "-workers", "1"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out.String())
	}
	for i, cols := range [][2]string{{"triangles=20 ", " peakDisk="}, {"cliques=15 ", " colors="}} {
		if !strings.Contains(lines[i], cols[0]) || !strings.Contains(lines[i], cols[1]) || !strings.HasSuffix(lines[i], " workers=1") {
			t.Errorf("line %d = %q, want %q, %q and a trailing workers=1", i, lines[i], cols[0], cols[1])
		}
	}
}
