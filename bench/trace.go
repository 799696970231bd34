package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Spans of one operation share Trace; Parent links
// a span to the span that caused it (0 for an operation's root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts taken at the boundary: block I/Os and word operations from
	// extmem Stats, the units of work (words, tuples, emissions) a probe
	// processed, time spent in client callbacks inside the call, time to
	// the first response byte, and Go heap allocation inside the call.
	IOs        uint64 `json:"ios,omitempty"`
	Words      uint64 `json:"words,omitempty"`
	Units      uint64 `json:"units,omitempty"`
	EmitNs     int64  `json:"emit_ns,omitempty"`
	TTFBNs     int64  `json:"ttfb_ns,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Kernel facts, for query spans.
	PeakLease int     `json:"peak_lease,omitempty"`
	PeakDisk  int64   `json:"peak_disk,omitempty"`
	Colors    int     `json:"colors,omitempty"`
	Subprobs  int     `json:"subproblems,omitempty"`
	HighDeg   int     `json:"high_degree,omitempty"`
	MaxSub    int64   `json:"max_subproblem,omitempty"`
	Skew      float64 `json:"worker_io_skew,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// While it is off, begin returns a span that records nothing, so traced
// wrappers can stay installed around code measured untraced.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is a span being recorded; a nil *active records nothing.
type active struct {
	tr *tracer
	span
	mem *runtime.MemStats
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent (nil for an operation's root, which
// starts a new trace).
func (t *tracer) begin(parent *active, layer, name string) *active {
	if parent == nil {
		return t.beginUnder(0, 0, layer, name)
	}
	return t.beginUnder(parent.Trace, parent.ID, layer, name)
}

// beginUnder opens a span under a parent known only by its trace and
// span ids, as a server learns them from a request header; trace 0
// starts a new trace.
func (t *tracer) beginUnder(trace, parent uint64, layer, name string) *active {
	if t == nil || !t.on.Load() {
		return nil
	}
	a := &active{tr: t}
	a.ID = t.next.Add(1)
	a.Layer, a.Name = layer, name
	a.Trace, a.Parent = trace, parent
	if trace == 0 {
		a.Trace = a.ID
	}
	a.Start = t.now()
	return a
}

// withAlloc makes the span record the Go heap allocated while it is open.
// ReadMemStats stops the world, so only coarse spans use it.
func (a *active) withAlloc() *active {
	if a != nil {
		a.mem = new(runtime.MemStats)
		runtime.ReadMemStats(a.mem)
	}
	return a
}

// end closes the span; edit, when non-nil, fills in its counts first.
func (a *active) end(edit func(s *span)) {
	if a == nil {
		return
	}
	a.End = a.tr.now()
	if a.mem != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		a.AllocBytes = m.TotalAlloc - a.mem.TotalAlloc
	}
	if edit != nil {
		edit(&a.span)
	}
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.span)
	a.tr.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanIndex answers the questions the per-layer metrics ask of a trace.
type spanIndex struct {
	byName   map[string][]*span
	children map[uint64][]*span
	byID     map[uint64]*span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]*span{}, children: map[uint64][]*span{}, byID: map[uint64]*span{}}
	for i := range spans {
		s := &spans[i]
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		ix.byID[s.ID] = s
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// self is a span's duration minus the part of it its children cover.
func (ix *spanIndex) self(s *span) time.Duration {
	kids := ix.children[s.ID]
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(k.Start, s.Start), min(k.End, s.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if x[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return s.dur() - time.Duration(covered)
}

// parentName is the name of s's parent span ("" for a root).
func (ix *spanIndex) parentName(s *span) string {
	if p, ok := ix.byID[s.Parent]; ok {
		return p.Name
	}
	return ""
}

// spans returns the spans named name, optionally only those whose parent
// is named parent.
func (ix *spanIndex) spans(name, parent string) []*span {
	if parent == "" {
		return ix.byName[name]
	}
	var out []*span
	for _, s := range ix.byName[name] {
		if ix.parentName(s) == parent {
			out = append(out, s)
		}
	}
	return out
}

// meanMs is the mean of f over ss in milliseconds.
func meanMs(ss []*span, f func(*span) time.Duration) float64 {
	if len(ss) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range ss {
		sum += f(s)
	}
	return float64(sum) / float64(len(ss)) / 1e6
}

// meanOf is the mean of f over ss.
func meanOf(ss []*span, f func(*span) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	var sum float64
	for _, s := range ss {
		sum += f(s)
	}
	return sum / float64(len(ss))
}

// perUnitNs is the total duration of ss divided by their total units, in
// nanoseconds per unit — the figure a probe reports. ss are repeats of
// one probe; the median repeat is used.
func perUnitNs(ss []*span) float64 {
	var xs []float64
	for _, s := range ss {
		if s.Units > 0 {
			xs = append(xs, float64(s.End-s.Start)/float64(s.Units))
		}
	}
	return median(xs)
}
