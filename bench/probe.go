package main

import (
	"os"
	"path/filepath"
	"slices"

	"repro/internal/cluster"
	"repro/internal/emio"
	"repro/internal/emsort"
	"repro/internal/extmem"
	"repro/internal/serve"
)

// probeReps is how often each probe repeats; the median repeat counts.
const probeReps = 3

// runProbes times single layer functions on the workload's own data: the
// packed edge words of its main graph and its triangles. Each probe is a
// span whose Units are the words, tuples or emissions it processed.
func runProbes(e *env, edges [][2]uint32, tris [][3]uint32) error {
	tr := e.tr
	words := packDelta(edges)
	n := int64(len(words))
	shuffled := append([]extmem.Word(nil), words...)
	e.rng(11).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	timed := func(name string, units int64, f func()) {
		s := tr.begin(nil, "probe", name)
		f()
		s.end(func(x *span) { x.Units = uint64(units) })
	}
	fill := func(sp *extmem.Space, src []extmem.Word) extmem.Extent {
		ext := sp.Alloc(n)
		for i, w := range src {
			ext.Write(int64(i), w)
		}
		return ext
	}
	readAll := func(ext extmem.Extent) {
		var x extmem.Word
		for i := int64(0); i < ext.Len(); i++ {
			x ^= ext.Read(i)
		}
		_ = x
	}

	for rep := 0; rep < probeReps; rep++ {
		// extmem: sequential writes into a fresh memory-backed Space (the
		// Build path), then cold sequential reads of the same words.
		sp := extmem.NewSpace(machineConfig(false))
		var ext extmem.Extent
		timed("probe.extmem.write.mem", n, func() { ext = fill(sp, words); sp.Flush() })
		sp.DropCache()
		timed("probe.extmem.read.mem", n, func() { readAll(ext) })
		sp.DropCache()
		timed("probe.emio.scan", n, func() {
			rd := emio.NewReader(ext)
			var x extmem.Word
			for w, ok := rd.Next(); ok; w, ok = rd.Next() {
				x ^= w
			}
			_ = x
		})
		sp.Close()

		path := filepath.Join(e.dir, "probe.words")
		fsp, err := extmem.NewFileSpace(machineConfig(false), path)
		if err != nil {
			return err
		}
		ext = fill(fsp, words)
		fsp.DropCache()
		timed("probe.extmem.read.file", n, func() { readAll(ext) })
		fsp.Close()
		if err := os.Remove(path); err != nil {
			return err
		}

		nsp := extmem.NewSpace(machineConfig(true))
		ext = fill(nsp, words)
		timed("probe.extmem.read.native", n, func() { readAll(ext) })
		nsp.Close()

		for _, s := range []struct {
			name string
			sort func(extmem.Extent, int, emsort.Key)
		}{{"probe.emsort.multiway", emsort.SortRecords}, {"probe.emsort.funnel", emsort.FunnelSortRecords}} {
			ssp := extmem.NewSpace(machineConfig(false))
			ext := fill(ssp, shuffled)
			ssp.Flush()
			ssp.DropCache()
			timed(s.name, n, func() { s.sort(ext, 1, emsort.Identity) })
			ssp.Close()
		}

		var line []byte
		timed("probe.serve.encode", int64(len(tris)), func() {
			for _, t := range tris {
				line = serve.AppendEmission(line[:0], t[:])
			}
		})

		flat := make([]uint32, 0, 3*len(tris))
		for _, i := range e.rng(13).Perm(len(tris)) {
			flat = append(flat, tris[i][:]...)
		}
		timed("probe.cluster.sort", int64(len(tris)), func() { cluster.SortTuples(flat, 3) })

		// The coordinator's k-way merge of two disjoint sorted shard
		// streams: alternate tuples of the sorted list.
		var a, b [][]uint32
		for i := 0; i+3 <= len(flat); i += 3 {
			if (i/3)%2 == 0 {
				a = append(a, flat[i:i+3])
			} else {
				b = append(b, flat[i:i+3])
			}
		}
		out := make([][]uint32, 0, len(a)+len(b))
		timed("probe.cluster.merge", int64(len(a)+len(b)), func() {
			i, j := 0, 0
			for i < len(a) || j < len(b) {
				if j == len(b) || (i < len(a) && cluster.CompareTuples(a[i], b[j]) < 0) {
					out = append(out, a[i])
					i++
				} else {
					out = append(out, b[j])
					j++
				}
			}
		})
		if !slices.IsSortedFunc(out, cluster.CompareTuples) {
			return mismatchf("cluster merge probe produced an unsorted stream")
		}
	}
	return nil
}
