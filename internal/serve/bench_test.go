package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro"
)

// BenchmarkE20ServeQuery measures the daemon round-trip overhead of a
// streamed query against the in-process callback query it wraps — the
// price of the network boundary — and asserts the served-results
// byte-identity contract on every iteration: the NDJSON data lines must
// equal the in-process stream encoded with the same wire encoder, and
// the trailer Result must equal the in-process Result. Reported
// metrics: IOs (the deterministic per-query block transfers, identical
// on both sides by construction), wireB/op (response bytes), and
// xRTT (wall-clock ratio wire/in-process; scheduling-dependent, not
// gated). See EXPERIMENTS.md E20.
func BenchmarkE20ServeQuery(b *testing.B) {
	g, err := repro.Build(repro.FromSpec("gnm:n=400,m=2800"), repro.Options{Seed: 20})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddGraph("g", g, ""); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// In-process reference: stream bytes and Result, plus its wall-clock.
	var want []byte
	t0 := time.Now()
	res, err := g.TrianglesFunc(context.Background(), repro.Query{Seed: 1}, func(x, y, z uint32) {
		want = AppendEmission(want, []uint32{x, y, z})
	})
	if err != nil {
		b.Fatal(err)
	}
	inprocNs := float64(time.Since(t0).Nanoseconds())
	wantRes := ToWireResult(res)
	qb, _ := json.Marshal(QueryRequest{Seed: 1})

	var wireBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/graphs/g/query", "application/json", bytes.NewReader(qb))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		wireBytes = len(raw)
		nl := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
		var trailer QueryTrailer
		if err := json.Unmarshal(raw[nl:], &trailer); err != nil {
			b.Fatalf("trailer: %v", err)
		}
		if !bytes.Equal(raw[:nl], want) {
			b.Fatalf("served stream differs from in-process stream (%d vs %d bytes)", nl, len(want))
		}
		if trailer.Result != wantRes {
			b.Fatalf("served result %+v != in-process %+v", trailer.Result, wantRes)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Stats.IOs()), "IOs")
	b.ReportMetric(float64(wireBytes), "wireB/op")
	b.ReportMetric(float64(res.Matches), "matches")
	if b.N > 0 && inprocNs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/inprocNs, "xRTT")
	}
}

// BenchmarkE20PagedStream reads two native streams of the wire workload's
// stream graph (powerlaw:n=4000,m=20000,beta=2.1 on M = 2^12, B = 2^6,
// Workers 1), CacheAware triangles and 4-cliques, through the handler in
// pages of 10,000, each resumed from the previous page's cursor, and
// fails unless the pages concatenate to the unpaged stream on every
// iteration. A resumed page starts at the decomposition unit its cursor
// names (a Lemma 1 pass or color triple, a color tuple), so the paged
// stream costs one enumeration plus a set-up per page, not a replay of
// the stream's prefix per page. Reported: pages (per stream) and
// xUnpaged (the paged stream's wall-clock over the fastest of three
// unpaged streams through the same handler; scheduling-dependent, not
// gated). See EXPERIMENTS.md E20.
func BenchmarkE20PagedStream(b *testing.B) {
	opts := repro.Options{MemoryWords: 1 << 12, BlockWords: 1 << 6, Workers: 1, Seed: 5}
	g, err := repro.Build(repro.FromSpec("powerlaw:n=4000,m=20000,beta=2.1"), opts)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddGraph("g", g, ""); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	query := func(b *testing.B, req QueryRequest) ([]byte, QueryTrailer) {
		body, _ := json.Marshal(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/g/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		raw := rec.Body.Bytes()
		nl := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
		var trailer QueryTrailer
		if err := json.Unmarshal(raw[nl:], &trailer); err != nil || !trailer.Done {
			b.Fatalf("trailer %q: %v", raw[nl:], err)
		}
		return raw[:nl], trailer
	}
	for _, stream := range []struct {
		name  string
		first QueryRequest
	}{
		{"triangles", QueryRequest{Seed: 1, Workers: 1, Native: true}},
		{"cliques4", QueryRequest{Kind: "cliques", K: 4, Seed: 1, Workers: 1, Native: true}},
	} {
		b.Run(stream.name, func(b *testing.B) {
			var want []byte
			unpaged := time.Duration(1 << 62)
			for range 3 {
				t0 := time.Now()
				want, _ = query(b, stream.first)
				unpaged = min(unpaged, time.Since(t0))
			}

			const pageSize = 10000
			pages := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var got []byte
				req := stream.first
				req.Limit = pageSize
				for pages = 1; ; pages++ {
					data, trailer := query(b, req)
					got = append(got, data...)
					if trailer.Cursor == "" {
						break
					}
					req = QueryRequest{Cursor: trailer.Cursor, Limit: pageSize}
				}
				if !bytes.Equal(got, want) {
					b.Fatalf("%d pages concatenate to %d bytes, not the unpaged %d", pages, len(got), len(want))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(pages), "pages")
			if b.N > 0 {
				b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(unpaged), "xUnpaged")
			}
		})
	}
}
