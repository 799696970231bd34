package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// params are a workload's input sizes.
type params struct {
	graph        string // generator spec of the workload's main graph
	clusterGraph string // wire: the graph partitioned across the shards
	deltaHalf    int    // update-mix: removals, and as many additions, per update
	checkpoint   int    // update-mix: updates between checkpoints
	pageLimit    uint64 // wire: emissions per page of a paged stream
	ioUpdates    int    // update-mix: update_ios averages the first this many updates
}

var fullParams = map[string]params{
	"sim-mem":     {graph: "powerlaw:n=8000,m=40000,beta=2.1"},
	"native-disk": {graph: "powerlaw:n=8000,m=40000,beta=2.1"},
	"update-mix":  {graph: "gnm:n=4000,m=32000", deltaHalf: 80, checkpoint: 100, ioUpdates: 50},
	"wire":        {graph: "powerlaw:n=4000,m=20000,beta=2.1", clusterGraph: "gnm:n=800,m=6000", pageLimit: 10000},
}

// workloadNames lists the workloads in the order `-workload all` runs them.
var workloadNames = []string{"sim-mem", "native-disk", "update-mix", "wire"}

// warmupOps is the number of operations each client runs before the
// measured window; they are checked but not counted.
const warmupOps = 3

// The untraced run performs its set-up at least minSetups times, and
// again while the set-ups so far took less than setupBudget, up to
// maxSetups times; setup_s is the median. A set-up of a few seconds runs
// minSetups times, one under 0.09 s maxSetups times.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = time.Second
)

// env is one run of one workload.
type env struct {
	name    string
	seed    uint64
	seconds float64
	dir     string // private scratch directory, removed at the end of the run
	p       params
	tr      *tracer // set for a traced run
}

// rng returns a generator for one named stream of the run's inputs, so
// each sequence (query seeds, op order, deltas) depends only on the seed.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream))
}

// querySeeds draws the k query seeds a client cycles through.
func querySeeds(r *rand.Rand, k int) []uint64 {
	s := make([]uint64, k)
	for i := range s {
		s[i] = r.Uint64()%1_000_000_007 + 1
	}
	return s
}

// mismatch is an output-oracle failure: the system answered, wrongly.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatch{fmt.Sprintf(format, args...)}
}

// client is one closed-loop caller: op runs the client's i-th operation
// (counting from 0, warm-up included) and names its kind. minOps is the
// number of measured operations the client completes even past the
// deadline, so each cycle of query seeds is covered at least once.
type client struct {
	op     func(i int) (kind string, err error)
	minOps int
}

type sample struct {
	kind string
	ms   float64
}

// loopResult is a measured window.
type loopResult struct {
	samples    []sample // successful measured operations
	attempted  int
	failed     int
	mismatches []string
	wall       time.Duration
	allocBytes uint64    // Go heap allocated during the window
	numGC      uint32    // garbage collections during the window
	gcFraction float64   // share of the window's CPU time spent in the collector
	rssMiB     []float64 // resident set size, sampled every rssEvery
}

// runClients runs every client concurrently: warmupOps unmeasured
// operations each, then a common measured window of dur. Each client
// issues its next operation only after the previous one returned. A
// failed warm-up aborts the run; failures in the window are counted and
// oracle mismatches collected.
func runClients(clients []client, dur time.Duration) (loopResult, error) {
	var res loopResult
	var mu sync.Mutex
	warmErr := make([]error, len(clients))
	var warm, done sync.WaitGroup
	start := make(chan time.Time)
	for ci, c := range clients {
		warm.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			for i := 0; i < warmupOps; i++ {
				if _, err := c.op(i); err != nil {
					warmErr[ci] = fmt.Errorf("warm-up operation %d: %w", i, err)
					break
				}
			}
			warm.Done()
			t0, ok := <-start
			if !ok {
				return
			}
			for i, n := warmupOps, 0; time.Since(t0) < dur || n < c.minOps; i, n = i+1, n+1 {
				opStart := time.Now()
				kind, err := c.op(i)
				ms := float64(time.Since(opStart)) / 1e6
				mu.Lock()
				res.attempted++
				var mm *mismatch
				switch {
				case errors.As(err, &mm):
					res.mismatches = append(res.mismatches, mm.msg)
				case err != nil:
					res.failed++
					fmt.Fprintf(os.Stderr, "operation %d failed: %v\n", i, err)
				default:
					res.samples = append(res.samples, sample{kind, ms})
				}
				mu.Unlock()
			}
		}()
	}
	warm.Wait()
	if err := errors.Join(warmErr...); err != nil {
		close(start)
		done.Wait()
		return res, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := readCPU()
	t0 := time.Now()
	rss := sampleRSS(rssEvery)
	for range clients {
		start <- t0
	}
	done.Wait()
	res.wall = time.Since(t0)
	res.rssMiB = rss.end()
	runtime.ReadMemStats(&m1)
	c1 := readCPU()
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.numGC = m1.NumGC - m0.NumGC
	if total := c1.total - c0.total; total > 0 {
		res.gcFraction = (c1.gc - c0.gc) / total
	}
	return res, nil
}

// cpuTimes are the runtime's estimates of the CPU time available to the
// process and of the part the garbage collector used.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// rssEvery is how often a measured window samples the resident set.
const rssEvery = 50 * time.Millisecond

// rssSampler reads the process's resident set size at its start and then
// every interval until it is ended.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mib  []float64
}

func sampleRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			if v, ok := residentMiB(); ok {
				s.mib = append(s.mib, v)
			}
			select {
			case <-s.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return s
}

// end stops the sampler, waits for it, and returns its samples.
func (s *rssSampler) end() []float64 {
	close(s.stop)
	<-s.done
	return s.mib
}

// residentMiB is the process's current resident set size, read from
// /proc/self/statm (Linux only).
func residentMiB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages*uint64(os.Getpagesize())) / (1 << 20), true
}

// latencies returns the sample latencies of the given kinds (all kinds
// when none are named).
func latencies(ss []sample, kinds ...string) []float64 {
	var out []float64
	for _, s := range ss {
		if len(kinds) == 0 || slices.Contains(kinds, s.kind) {
			out = append(out, s.ms)
		}
	}
	return out
}

// metric is one reported number. n is the sample count behind a sample
// statistic (0 for anything else).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is the outcome of one run.
type report struct {
	attempted int
	failed    int
	problems  []string // oracle mismatches
	metrics   []metric // the metrics BENCHMARK.json lists for this mode
	extra     []metric // workload-specific metrics, printed and recorded
}

func (r *report) correct() bool { return len(r.problems) == 0 }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func (r *report) addExtra(m ...metric) { r.extra = append(r.extra, m...) }

// timing returns a kind's median and, where the sample supports it, its
// p90, named prefix_p50_ms and prefix_p90_ms.
func timing(prefix string, xs []float64) []metric {
	if len(xs) == 0 {
		return nil
	}
	out := []metric{{name: prefix + "_p50_ms", value: percentile(xs, 0.5), unit: "ms", n: len(xs)}}
	if tailSupported(len(xs), 0.9) {
		out = append(out, metric{name: prefix + "_p90_ms", value: percentile(xs, 0.9), unit: "ms", n: len(xs)})
	}
	return out
}

// instance is one set-up of a workload, ready to serve.
type instance interface {
	// setupIOs is the deterministic block-I/O cost of the set-up: the
	// canonicalization of every graph it builds, plus image adoption.
	setupIOs() uint64
	// clients returns the closed-loop callers of the workload.
	clients() []client
	// finish runs the end-of-run oracles over the whole run and adds the
	// workload's own end-to-end metrics.
	finish(samples []sample, r *report)
	// traced replays the workload with the tracer on for dur, probes the
	// layers its operations bypass, and adds its workload-specific layer
	// metrics; see trace_run.go.
	traced(dur time.Duration, r *report) (tracedResult, error)
	close() error
}

// workload makes the inputs of one run (untimed) and opens set-ups.
type workload interface {
	open(rep int) (instance, error)
}

func newWorkload(e *env) (workload, error) {
	switch e.name {
	case "sim-mem", "native-disk":
		return newQueryWorkload(e)
	case "update-mix":
		return newUpdateWorkload(e)
	case "wire":
		return newWireWorkload(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", e.name, workloadNames)
}

// run performs one run of e's workload and reports it.
func run(e *env) (*report, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	w, err := newWorkload(e)
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		return runTraced(e, w)
	}

	// Set-up: inputs in memory → ready to serve, several times; the last
	// set-up serves the measured window.
	var setups []float64
	var spent time.Duration
	var inst instance
	for rep := 0; rep < maxSetups && (rep < minSetups || spent < setupBudget); rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if inst, err = w.open(rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer inst.close()

	lr, err := runClients(inst.clients(), time.Duration(e.seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	r := &report{attempted: lr.attempted, failed: lr.failed, problems: lr.mismatches}
	inst.finish(lr.samples, r)

	all := latencies(lr.samples)
	r.add("setup_s", median(setups), "s")
	r.metrics = append(r.metrics,
		metric{name: "op_p50_ms", value: percentile(all, 0.5), unit: "ms", n: len(all)},
		metric{name: "op_p90_ms", value: percentile(all, 0.9), unit: "ms", n: len(all)})
	r.add("ops_per_s", float64(len(lr.samples))/lr.wall.Seconds(), "ops/s")
	r.add("setup_ios", float64(inst.setupIOs()), "IOs")
	r.add("rss_mb", median(lr.rssMiB), "MiB")
	r.addExtra(metric{name: "setup_reps", value: float64(len(setups)), unit: "count"},
		metric{name: "peak_rss_mb", value: peakRSSMiB(), unit: "MiB"})
	if lr.attempted > 0 {
		r.addExtra(metric{name: "failed_ratio", value: float64(lr.failed) / float64(lr.attempted), unit: "ratio", n: lr.attempted})
	}
	return r, nil
}

// peakRSSMiB is the peak resident set size of this process.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupDir returns a fresh directory for set-up rep's files.
func (e *env) setupDir(rep int) (string, error) {
	d := filepath.Join(e.dir, fmt.Sprintf("setup%d", rep))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
