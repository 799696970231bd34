package main

import (
	"regexp"
	"slices"
	"testing"
)

const oldBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkE10Sorting/multiway-8         	       1	  52589021 ns/op	      2713 IOs
BenchmarkE13ParallelWorkers/workers=1  	       1	8478859423 ns/op	    117006 IOs	        25 subproblems
BenchmarkE15ParallelSort/multiway/workers=2         	       1	  47668261 ns/op	      2713 IOs
BenchmarkE15ParallelSort/funnel/workers=2         	       1	  55654387 ns/op	      7468 IOs
BenchmarkRetired 	       1	  100 ns/op	      50 IOs
PASS
ok  	repro	25.607s
`

const newBench = `BenchmarkE10Sorting/multiway-8         	       1	  60000000 ns/op	      2713 IOs
BenchmarkE13ParallelWorkers/workers=1  	       1	8400000000 ns/op	    150000 IOs	        25 subproblems
BenchmarkE15ParallelSort/multiway/workers=2         	       1	  47000000 ns/op	      3200 IOs
BenchmarkE16New 	       1	  100 ns/op	      70 IOs
BenchmarkE10Sorting/binary-8         	       1	  60951992 ns/op	     31744 IOs
`

func parse(t *testing.T, s string) []benchResult {
	t.Helper()
	var out []benchResult
	for _, line := range regexp.MustCompile(`\n`).Split(s, -1) {
		if r, ok := parseLine(line); ok {
			out = append(out, r)
		}
	}
	return out
}

func TestParseLine(t *testing.T) {
	rs := parse(t, oldBench)
	if len(rs) != 5 {
		t.Fatalf("parsed %d results, want 5", len(rs))
	}
	r := rs[1]
	if r.Name != "BenchmarkE13ParallelWorkers/workers=1" || r.Iters != 1 {
		t.Fatalf("bad result %+v", r)
	}
	if r.Metrics["IOs"] != 117006 || r.Metrics["subproblems"] != 25 || r.Metrics["ns/op"] != 8478859423 {
		t.Fatalf("bad metrics %+v", r.Metrics)
	}
}

func TestGate(t *testing.T) {
	old, new_ := parse(t, oldBench), parse(t, newBench)
	re := regexp.MustCompile(`E10|E13|E15`)

	// E13 regresses by 28%, E15 by 18%, E10 is flat: one regression at
	// the 20% threshold. A watched benchmark in one input only is named,
	// not compared; an unwatched one (Retired, E16New) is not named.
	regressions, compared, unpaired := gate(old, new_, re, "IOs", 20)
	if compared != 3 {
		t.Errorf("compared %d benchmarks, want 3", compared)
	}
	want := []string{"retired BenchmarkE15ParallelSort/funnel/workers=2", "new BenchmarkE10Sorting/binary-8"}
	if !slices.Equal(unpaired, want) {
		t.Errorf("unpaired = %q, want %q", unpaired, want)
	}
	if len(regressions) != 1 || !regexp.MustCompile(`E13.*117006 -> 150000`).MatchString(regressions[0]) {
		t.Errorf("regressions = %q, want exactly the E13 IOs jump", regressions)
	}

	// At a 10% threshold E15's +18% trips as well.
	regressions, _, _ = gate(old, new_, re, "IOs", 10)
	if len(regressions) != 2 {
		t.Errorf("threshold 10%%: got %d regressions, want 2: %q", len(regressions), regressions)
	}

	// Gating on a metric no benchmark reports compares nothing (main
	// treats compared==0 with a non-empty baseline as a gate error).
	if _, compared, _ := gate(old, new_, re, "widgets", 20); compared != 0 {
		t.Errorf("compared %d on a missing metric, want 0", compared)
	}
}
