package serve

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// The cursor token: an opaque, resumable position in a query's
// deterministic emission stream.
//
// The engine's emission order is a pure function of (canonical image,
// query kind, k/pattern, algorithm, seed) — invariant in Workers,
// concurrency, and time — so a position in the stream is fully
// described by the number of emissions before it plus the query
// identity and the generation whose image it ran on. The token also
// names the decomposition unit that holds the last emission delivered
// and the unit's first emission (repro.Position), so a resumed page
// starts the engine at that unit — a Lemma 1 pass, color triple or
// planner task of a triangle query, a color tuple of a clique or match
// query — and drops only the unit's emissions before Pos; queries
// without units (ordered streams, the sequential baselines) name unit 0
// and replay from the start. A token minted before the unit fields
// existed carries neither, and a clique or match token minted before
// their tuples were units names unit 0: both resume by replay too. Either way the suffix delivered is
// byte-identical to what the uncursored stream would have carried from
// that position, which the wire-contract tests pin.
//
// The token is base64url(JSON) + "." + an FNV-1a checksum. The checksum
// guards against truncation and accidental corruption in transit, not
// against a malicious client — a forged cursor can only reposition that
// client's own stream, and one naming an impossible position is a 400.

// cursor is the decoded token. Short JSON keys keep the token compact;
// it is opaque to clients either way.
type cursor struct {
	V         int    `json:"v"`           // codec version, currently 1
	Graph     string `json:"g"`           // registry ID the token is valid for
	Gen       uint64 `json:"n"`           // generation the emission order belongs to
	Kind      string `json:"k"`           // resolved query kind
	K         int    `json:"c,omitempty"` // clique size (kind "cliques")
	Pattern   string `json:"p,omitempty"` // pattern name (kind "match")
	Algorithm string `json:"a,omitempty"` // algorithm name (kind "triangles")
	Seed      uint64 `json:"s,omitempty"` // decomposition seed
	Native    bool   `json:"x,omitempty"` // native execution mode
	Ordered   bool   `json:"d,omitempty"` // canonical global order
	Pos       uint64 `json:"o"`           // emissions already delivered
	Unit      int    `json:"u,omitempty"` // unit of the last delivered emission
	UnitStart uint64 `json:"b,omitempty"` // emissions before that unit's first
}

const cursorVersion = 1

func cursorSum(payload string) string {
	h := fnv.New32a()
	h.Write([]byte(payload))
	return fmt.Sprintf("%08x", h.Sum32())
}

// encodeCursor mints the opaque token for c.
func encodeCursor(c cursor) string {
	c.V = cursorVersion
	b, err := json.Marshal(c)
	if err != nil {
		// cursor has no unmarshalable fields; unreachable.
		panic(err)
	}
	payload := base64.RawURLEncoding.EncodeToString(b)
	return payload + "." + cursorSum(payload)
}

// decodeCursor validates and decodes a token minted by encodeCursor.
func decodeCursor(tok string) (cursor, error) {
	var c cursor
	i := len(tok) - 9
	if i < 0 || tok[i] != '.' {
		return c, fmt.Errorf("malformed cursor")
	}
	payload, sum := tok[:i], tok[i+1:]
	if cursorSum(payload) != sum {
		return c, fmt.Errorf("cursor checksum mismatch")
	}
	b, err := base64.RawURLEncoding.DecodeString(payload)
	if err != nil {
		return c, fmt.Errorf("malformed cursor: %v", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("malformed cursor: %v", err)
	}
	if c.V != cursorVersion {
		return c, fmt.Errorf("unsupported cursor version %d", c.V)
	}
	return c, nil
}
