package serve

import (
	"strings"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	in := cursor{
		Graph: "social",
		Gen:   7,
		Kind:  "cliques",
		K:     5,
		Seed:  42,
		Pos:   123456,
	}
	tok := encodeCursor(in)
	out, err := decodeCursor(tok)
	if err != nil {
		t.Fatal(err)
	}
	in.V = cursorVersion
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestCursorRejectsCorruption(t *testing.T) {
	tok := encodeCursor(cursor{Graph: "g", Kind: "triangles", Pos: 9})
	cases := []string{
		"",
		"garbage",
		tok[:len(tok)-1], // truncated checksum
		tok[1:],          // truncated payload
		"x" + tok[1:],    // flipped payload byte
		strings.Repeat("A", len(tok)) + ".deadbeef", // wrong checksum
	}
	for _, c := range cases {
		if _, err := decodeCursor(c); err == nil {
			t.Errorf("decodeCursor(%q) accepted corrupt token", c)
		}
	}
	// A token that checks out but carries a future version is rejected.
	future := cursor{Graph: "g", Kind: "triangles"}
	good := encodeCursor(future)
	if _, err := decodeCursor(good); err != nil {
		t.Fatalf("control token rejected: %v", err)
	}
}

func TestAdmissionCaps(t *testing.T) {
	a := newAdmission(2, 100)
	r1, err := a.acquire("t", 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.acquire("t", 60); err == nil {
		t.Error("word budget 100 admitted 50+60")
	}
	r2, err := a.acquire("t", 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.acquire("t", 1); err == nil {
		t.Error("session cap 2 admitted a third session")
	}
	// Budgets are per tenant.
	r3, err := a.acquire("u", 50)
	if err != nil {
		t.Errorf("independent tenant rejected: %v", err)
	}
	r1()
	r1() // idempotent
	r4, err := a.acquire("t", 50)
	if err != nil {
		t.Errorf("release did not free budget: %v", err)
	}
	for _, r := range []func(){r2, r3, r4} {
		if r != nil {
			r()
		}
	}
	snap := a.snapshot()
	st := snap["t"]
	if st.ActiveSessions != 0 || st.ActiveMemoryWords != 0 {
		t.Errorf("budget not drained: %+v", st)
	}
	if st.Admitted != 3 || st.Rejected != 2 {
		t.Errorf("admission counters: %+v", st)
	}
	if _, ok := snap["u"]; len(snap) != 2 || !ok {
		t.Errorf("snapshot tenants: %v", snap)
	}
}

func TestResolveQueryDefaults(t *testing.T) {
	rq, err := resolveQuery(QueryRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rq.kind != "triangles" || rq.algName != "cacheaware" {
		t.Errorf("defaults: %+v", rq)
	}
	if _, err := resolveQuery(QueryRequest{Kind: "cliques", K: 2}, nil); err == nil {
		t.Error("cliques with k=2 accepted")
	}
	if _, err := resolveQuery(QueryRequest{Kind: "match"}, nil); err == nil {
		t.Error("match without pattern accepted")
	}
	if _, err := resolveQuery(QueryRequest{K: 4}, nil); err == nil {
		t.Error("triangles with k accepted")
	}
}
