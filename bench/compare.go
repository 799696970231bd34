package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the comparison needs: each
// end-to-end metric's direction and the share of the old median by which
// it may worsen.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from path, or, when path is empty, from
// the nearest directory upward from the current one that has it.
func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return s, err
		}
		for path == "" {
			cand := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(cand); err == nil {
				path = cand
			} else if parent := filepath.Dir(dir); parent != dir {
				dir = parent
			} else {
				return s, errors.New("no BENCHMARK.json found; pass -spec")
			}
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// comparison is one metric on one workload, old runs against new.
type comparison struct {
	old, new    [3]float64 // first quartile, median, third quartile
	wins, pairs int
	verdict     string
}

// compareRuns applies the rules of a performance claim. Run i of each
// side forms pair i, so the runs must have been made alternating.
//   - improved: at least ten pairs, the new run wins at least nine in
//     ten, and the medians differ, in the new side's favour, by more than
//     the old side's spread between quartiles;
//   - unresolved: either side's spread is wider than the bound, unless
//     every new run reads better than every old run;
//   - regressed: the new median is worse than the old one by more than
//     the bound;
//   - unchanged: otherwise.
func compareRuns(old, new []float64, higherBetter bool, bound float64) comparison {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	var c comparison
	c.old[0], c.old[1], c.old[2] = quartiles(old)
	c.new[0], c.new[1], c.new[2] = quartiles(new)
	c.pairs = min(len(old), len(new))
	for i := 0; i < c.pairs; i++ {
		if better(new[i], old[i]) {
			c.wins++
		}
	}
	rel := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	spread := max(rel(c.old), rel(c.new))
	worseBy := 0.0
	if c.old[1] != 0 {
		worseBy = (c.new[1] - c.old[1]) / math.Abs(c.old[1])
		if higherBetter {
			worseBy = -worseBy
		}
	}
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	switch {
	case c.pairs >= 10 && c.wins*10 >= 9*c.pairs && better(c.new[1], c.old[1]) &&
		math.Abs(c.new[1]-c.old[1]) > c.old[2]-c.old[0]:
		c.verdict = "improved"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	case worseBy > bound:
		c.verdict = "regressed"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// values collects a metric's values over the untraced runs of workload.
func values(rf resultsFile, workload, name string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func runCompare(oldPath, newPath, specPath string, w io.Writer) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	old, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	neu, err := loadResults(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-12s %30s %30s %7s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			ov, nv := values(old, wl, m.Name), values(neu, wl, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			c := compareRuns(ov, nv, m.Better == "higher", m.Bound)
			q := func(x [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", x[1], x[0], x[2]) }
			fmt.Fprintf(w, "%-12s %-12s %30s %30s %3d/%-3d  %s (bound %g)\n", wl, m.Name, q(c.old), q(c.new), c.wins, c.pairs, c.verdict, m.Bound)
		}
	}
	return nil
}
