package repro

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// The native-execution oracle: for every query kind, native execution
// (Options.Native / Query.Mode) must reproduce the simulated run's
// emission stream byte for byte — same decomposition, same order — at
// every worker count, memory- and disk-backed. The one documented
// divergence is the accounting: a native run reports zero Stats and nil
// WorkerStats, because the block-transfer bookkeeping is compiled out of
// its hot path.

// nativeQuerySpec is one query kind driven through both execution modes.
type nativeQuerySpec struct {
	name string
	run  func(g *Graph, mode ExecMode, workers int) (string, Result, error)
}

func nativeSuite() []nativeQuerySpec {
	var specs []nativeQuerySpec
	for _, alg := range Algorithms() {
		specs = append(specs, nativeQuerySpec{
			name: "triangles/" + alg.String(),
			run: func(g *Graph, mode ExecMode, workers int) (string, Result, error) {
				var b []byte
				res, err := g.TrianglesFunc(nil, Query{Algorithm: alg, Seed: 8, Mode: mode, Workers: workers}, func(x, y, z uint32) {
					b = fmt.Appendf(b, "%d %d %d;", x, y, z)
				})
				return string(b), res, err
			},
		})
	}
	specs = append(specs,
		nativeQuerySpec{name: "cliques/k=4", run: func(g *Graph, mode ExecMode, workers int) (string, Result, error) {
			var b []byte
			res, err := g.CliquesFunc(nil, 4, Query{Seed: 5, Mode: mode, Workers: workers}, func(c []uint32) {
				b = fmt.Appendf(b, "%v;", c)
			})
			return string(b), res, err
		}},
		nativeQuerySpec{name: "match/diamond", run: func(g *Graph, mode ExecMode, workers int) (string, Result, error) {
			var b []byte
			res, err := g.MatchFunc(nil, PatternDiamond, Query{Seed: 11, Mode: mode, Workers: workers}, func(m []uint32) {
				b = fmt.Appendf(b, "%v;", m)
			})
			return string(b), res, err
		}},
	)
	return specs
}

// TestNativeMatchesSimulated is the cross-check contract of the native
// backend, pinned at Workers 1 and 4 on both backends for every query
// kind.
func TestNativeMatchesSimulated(t *testing.T) {
	edges, err := Generate("powerlaw:n=400,m=3000,beta=2.1", 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"mem", "disk"} {
		opts := Options{MemoryWords: 1 << 10, BlockWords: 1 << 5}
		if backend == "disk" {
			opts.DiskPath = filepath.Join(t.TempDir(), "native.img")
		}
		g, err := Build(FromEdges(edges), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, spec := range nativeSuite() {
				name := fmt.Sprintf("%s/%s/w%d", backend, spec.name, workers)
				simStream, simRes, err := spec.run(g, ModeSimulated, workers)
				if err != nil {
					t.Fatalf("%s simulated: %v", name, err)
				}
				natStream, natRes, err := spec.run(g, ModeNative, workers)
				if err != nil {
					t.Fatalf("%s native: %v", name, err)
				}
				if natStream != simStream {
					t.Errorf("%s: native emission differs from simulated", name)
				}
				if natRes.Stats != (IOStats{}) {
					t.Errorf("%s: native Stats not zero: %+v", name, natRes.Stats)
				}
				if natRes.WorkerStats != nil {
					t.Errorf("%s: native WorkerStats not nil: %d entries", name, len(natRes.WorkerStats))
				}
				// Everything but the accounting must agree.
				natRes.Stats, simRes.Stats = IOStats{}, IOStats{}
				natRes.WorkerStats, simRes.WorkerStats = nil, nil
				if !reflect.DeepEqual(natRes, simRes) {
					t.Errorf("%s: Results differ beyond accounting:\nnative:    %+v\nsimulated: %+v", name, natRes, simRes)
				}
			}
		}
		g.Close()
	}
}

// TestNativeModeResolution pins the Options.Native default and its
// per-query override: ModeAuto inherits the handle's mode, ModeSimulated
// forces the faithful path back on (with its full accounting), and the
// emission stream never depends on the choice.
func TestNativeModeResolution(t *testing.T) {
	edges, err := Generate("gnm:n=200,m=1500", 9)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(FromEdges(edges), Options{MemoryWords: 1 << 10, BlockWords: 1 << 5, Native: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	count := func(mode ExecMode) Result {
		res, err := g.TrianglesFunc(nil, Query{Seed: 2, Mode: mode}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	auto, sim := count(ModeAuto), count(ModeSimulated)
	if auto.Stats != (IOStats{}) {
		t.Errorf("ModeAuto on a Native handle should run natively, got Stats %+v", auto.Stats)
	}
	if sim.Stats == (IOStats{}) {
		t.Error("ModeSimulated override reported zero Stats")
	}
	if auto.Triangles != sim.Triangles {
		t.Errorf("triangle counts differ across modes: %d vs %d", auto.Triangles, sim.Triangles)
	}
}

// TestNativeSubscribe pins the standing-query side of the contract: a
// native subscription delivers ChangeSets with exactly the simulated
// subscription's Added/Removed tuples and metadata, with zero Stats.
func TestNativeSubscribe(t *testing.T) {
	g, err := Build(FromSpec("gnm:n=120,m=900"), Options{MemoryWords: 1 << 10, BlockWords: 1 << 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sim, err := g.Subscribe(nil, Query{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	nat, err := g.Subscribe(nil, Query{Workers: 2, Mode: ModeNative})
	if err != nil {
		t.Fatal(err)
	}
	defer nat.Close()

	deltas := []Delta{
		{Add: []Edge{{1, 2}, {2, 3}, {1, 3}, {3, 4}}},
		{Remove: []Edge{{1, 2}}, Add: []Edge{{2, 4}, {1, 4}}},
	}
	for _, d := range deltas {
		if _, err := g.Update(nil, d); err != nil {
			t.Fatal(err)
		}
	}
	for i := range deltas {
		s, n := <-sim.Changes(), <-nat.Changes()
		if n.Stats != (IOStats{}) {
			t.Errorf("delta %d: native ChangeSet Stats not zero: %+v", i, n.Stats)
		}
		if s.Stats == (IOStats{}) {
			t.Errorf("delta %d: simulated ChangeSet Stats unexpectedly zero", i)
		}
		n.Stats, s.Stats = IOStats{}, IOStats{}
		if !reflect.DeepEqual(n, s) {
			t.Errorf("delta %d: ChangeSets differ beyond Stats:\nnative:    %+v\nsimulated: %+v", i, n, s)
		}
	}
}

// TestNativeJoin pins the join surface: native reconstruction returns
// the same rows with zero I/O statistics.
func TestNativeJoin(t *testing.T) {
	rows := []JoinRow{
		{"ann", "acme", "vacuum"}, {"ann", "bolt", "kettle"},
		{"bob", "bolt", "vacuum"}, {"eve", "cord", "toaster"},
	}
	dec := DecomposeJoinRows(rows)
	for _, alg := range []Algorithm{CacheAware, CacheOblivious, Deterministic, HuTaoChung} {
		var simRows, natRows []JoinRow
		simSt, err := dec.Join(JoinOptions{Algorithm: alg, Seed: 3}, func(r JoinRow) { simRows = append(simRows, r) })
		if err != nil {
			t.Fatalf("%v simulated: %v", alg, err)
		}
		natSt, err := dec.Join(JoinOptions{Algorithm: alg, Seed: 3, Native: true}, func(r JoinRow) { natRows = append(natRows, r) })
		if err != nil {
			t.Fatalf("%v native: %v", alg, err)
		}
		if !reflect.DeepEqual(simRows, natRows) {
			t.Errorf("%v: native join rows differ from simulated", alg)
		}
		if natSt.IOs != 0 || natSt.BlockReads != 0 || natSt.BlockWrites != 0 {
			t.Errorf("%v: native join stats not zero: %+v", alg, natSt)
		}
		if natSt.Rows != simSt.Rows {
			t.Errorf("%v: row counts differ: native %d, simulated %d", alg, natSt.Rows, simSt.Rows)
		}
	}
}

// TestNativeEnumerateShim pins the one-call pipeline in native mode:
// Options.Native on Build flows through to a TrianglesFunc query that
// leaves Query.Mode at ModeAuto — same triangles, zero Stats.
func TestNativeEnumerateShim(t *testing.T) {
	edges, err := Generate("gnm:n=150,m=1200", 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MemoryWords: 1 << 10, BlockWords: 1 << 5}
	var sim, nat []Triangle
	simRes, err := buildQuery(edges, opts, Query{Seed: 5}, func(a, b, c uint32) { sim = append(sim, Triangle{a, b, c}) })
	if err != nil {
		t.Fatal(err)
	}
	opts.Native = true
	natRes, err := buildQuery(edges, opts, Query{Seed: 5}, func(a, b, c uint32) { nat = append(nat, Triangle{a, b, c}) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim, nat) {
		t.Error("native emission differs from simulated")
	}
	if natRes.Stats != (IOStats{}) {
		t.Errorf("native Stats not zero: %+v", natRes.Stats)
	}
	if natRes.Triangles != simRes.Triangles {
		t.Errorf("triangle counts differ: native %d, simulated %d", natRes.Triangles, simRes.Triangles)
	}
}
