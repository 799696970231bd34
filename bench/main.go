// Command bench is the repository's end-to-end benchmark: four workloads
// that drive the public surface of the library (Build, Open, queries,
// Update, Subscribe, Partition, DialCluster) and the serve layer over
// loopback HTTP as closed-loop clients, check every output against
// independent oracles, and report end-to-end metrics, or, with -trace 1,
// per-layer metrics from a traced replay. See README.md.
//
//	go run . -workload sim-mem -seed 1 -seconds 20
//	go run . -workload all -seed 1 -out results.json
//	go run . -workload wire -trace 1 -spans spans.json
//	go run . -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	out := fs.String("out", "", "append this run's record to this results file")
	label := fs.String("label", "", "label stored with the record (e.g. the set it belongs to)")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for graph images and scratch")
	compare := fs.String("compare", "", "compare this results file (old) with the one named by the argument (new)")
	spec := fs.String("spec", "", "BENCHMARK.json holding the metric bounds for -compare (default: found upward from here)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: bench -compare OLD.json NEW.json")
			return 2
		}
		if err := runCompare(*compare, fs.Arg(0), *spec, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		if *spans != "" {
			fmt.Fprintln(stderr, "bench: -spans needs a single workload")
			return 2
		}
		return runAll(args, stdout, stderr)
	}
	p, ok := fullParams[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	e := &env{name: *name, seed: *seed, seconds: *seconds, p: p,
		dir: filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))}
	if *trace == 1 {
		e.tr = newTracer()
	}
	fmt.Fprintf(stderr, "bench: %s seed %d on nproc %d, GOMAXPROCS %d, %s\n",
		e.name, e.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	r, err := run(e)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if e.tr != nil && *spans != "" {
		if err := e.tr.write(*spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printReport(stdout, r)
	if *out != "" {
		rec := newRecord(e, *label, r)
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "bench: output oracle:", p)
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so memory
// and GC state do not carry over from one workload to the next.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, append(withoutFlag(args, "workload"), "-workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
			status = 1
		}
	}
	return status
}

// withoutFlag drops every occurrence of -name / --name (with its value)
// from args.
func withoutFlag(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == name && len(args[i]) > len(a):
			i++ // the value follows
		case strings.HasPrefix(a, name+"=") && len(args[i]) > len(a):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// printReport prints every metric as "name value unit", then the result
// object, which is always the last line of the output.
func printReport(w io.Writer, r *report) {
	for _, set := range [][]metric{r.metrics, r.extra} {
		for _, m := range set {
			line := fmt.Sprintf("%s %s %s", m.name, formatValue(m.value), m.unit)
			if m.n > 0 {
				line += fmt.Sprintf(" n=%d", m.n)
			}
			fmt.Fprintln(w, line)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// machine describes where a run was taken.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

func currentMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, when there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recValue is one metric in a results file.
type recValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// record is one run in a results file.
type record struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Label     string              `json:"label,omitempty"`
	Machine   machine             `json:"machine"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]recValue `json:"metrics"`
	Extra     map[string]recValue `json:"extra,omitempty"`
}

// resultsFile is a set of recorded runs, in the order they were made.
type resultsFile struct {
	Runs []record `json:"runs"`
}

func newRecord(e *env, label string, r *report) record {
	rec := record{Workload: e.name, Seed: e.seed, Seconds: e.seconds, Trace: e.tr != nil, Label: label,
		Machine: currentMachine(), Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]recValue{}, Extra: map[string]recValue{}}
	for _, m := range r.metrics {
		rec.Metrics[m.name] = recValue{m.value, m.unit, m.n}
	}
	for _, m := range r.extra {
		rec.Extra[m.name] = recValue{m.value, m.unit, m.n}
	}
	return rec
}

func loadResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func appendRecord(path string, rec record) error {
	rf, err := loadResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
