// Command benchgate compares two `go test -bench` outputs and fails when
// a watched benchmark regresses beyond a threshold, and converts bench
// output to JSON for the per-commit perf-trajectory artifact.
//
// Usage:
//
//	benchgate -match 'E2Oblivious|E9|E10|E13|E15' -metric IOs -max-regress 20 old.txt new.txt
//	benchgate -json new.txt > BENCH_<sha>.json
//
// The default gated metric is the simulated block-I/O count ("IOs"), which
// this repository's benchmarks report as a custom metric: unlike ns/op on
// a shared CI runner, it is deterministic for a fixed seed, so a >20%
// change is a real algorithmic regression, never scheduler noise.
// A watched benchmark present in only one input is not compared; the gate
// prints "retired <name>" for one found only in OLD and "new <name>" for
// one found only in NEW, so a rename cannot drop a benchmark from the
// gate unseen. CI is expected to compare against a freshly regenerated
// baseline from the PR's base commit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark line: its name, iteration count, and every
// reported "value unit" metric pair (ns/op included).
type benchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	var (
		match      = flag.String("match", ".", "regexp of benchmark names to gate")
		metric     = flag.String("metric", "IOs", "metric to gate on (benchmarks lacking it are skipped)")
		maxRegress = flag.Float64("max-regress", 20, "maximum allowed regression in percent")
		jsonOut    = flag.Bool("json", false, "emit one input file's results as JSON instead of comparing")
	)
	flag.Parse()

	if *jsonOut {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("benchgate -json needs exactly one bench output file"))
		}
		results, err := parseFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() != 2 {
		fatal(fmt.Errorf("benchgate needs two bench output files: old new"))
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fatal(fmt.Errorf("bad -match regexp: %w", err))
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	new_, err := parseFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	regressions, compared, unpaired := gate(old, new_, re, *metric, *maxRegress)
	fmt.Printf("benchgate: compared %d benchmarks on %q (threshold +%.0f%%)\n", compared, *metric, *maxRegress)
	for _, u := range unpaired {
		fmt.Println("  " + u)
	}
	for _, r := range regressions {
		fmt.Println("  REGRESSION " + r)
	}
	if len(regressions) > 0 {
		os.Exit(1)
	}
	if compared == 0 {
		if len(old) == 0 {
			// The baseline produced no parseable benchmarks (e.g. it
			// predates the suite, or CI substituted an empty file after a
			// baseline failure): nothing to gate, by design.
			fmt.Println("benchgate: baseline has no benchmarks; skipping gate")
			return
		}
		// Both sides ran benchmarks yet nothing matched the watched set
		// and metric — a rename or a lost metric would otherwise turn the
		// gate into a permanent green no-op.
		fatal(fmt.Errorf("no benchmark matched -match %q with metric %q in both inputs; gate is guarding nothing", *match, *metric))
	}
}

// gate compares the watched metric of every benchmark present in both
// result sets and returns the regression report lines and the number
// compared. unpaired names every watched benchmark found in one input
// only, sorted: "retired <name>" for OLD, then "new <name>" for NEW.
func gate(old, new_ []benchResult, match *regexp.Regexp, metric string, maxRegress float64) (regressions []string, compared int, unpaired []string) {
	oldBy := make(map[string]benchResult, len(old))
	for _, r := range old {
		oldBy[r.Name] = r
	}
	names := make([]string, 0, len(new_))
	newBy := make(map[string]benchResult, len(new_))
	for _, r := range new_ {
		newBy[r.Name] = r
		names = append(names, r.Name)
	}
	sort.Strings(names)
	var retired, added []string
	for name := range oldBy {
		if _, ok := newBy[name]; !ok && match.MatchString(name) {
			retired = append(retired, "retired "+name)
		}
	}
	sort.Strings(retired)
	for _, name := range names {
		if !match.MatchString(name) {
			continue
		}
		o, ok := oldBy[name]
		if !ok {
			added = append(added, "new "+name)
			continue
		}
		ov, ook := o.Metrics[metric]
		nv, nok := newBy[name].Metrics[metric]
		if !ook || !nok || ov <= 0 {
			continue
		}
		compared++
		if change := (nv/ov - 1) * 100; change > maxRegress {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s %.0f -> %.0f (%+.1f%%, limit +%.0f%%)", name, metric, ov, nv, change, maxRegress))
		}
	}
	return regressions, compared, append(retired, added...)
}

func parseFile(path string) ([]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []benchResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// parseLine parses one benchmark result line of `go test -bench` output:
// a name starting with "Benchmark", an iteration count, and then (value,
// unit) pairs.
func parseLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}
