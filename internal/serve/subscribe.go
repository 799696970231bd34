package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro"
)

// handleSubscribe opens a long-lived NDJSON change stream: the request
// registers a standing query on the graph and the connection carries
// one WireChange line per effective update until either side ends it.
// The connection is the backpressure — a slow client stalls only its
// own deliveries (they queue inside the subscription), never the
// updates producing them — and the subscription charges the tenant's
// session budget for as long as the stream lives, exactly like a query
// session. Generation numbers are stamped on every line so a client
// that reconnects with AfterGeneration resumes exactly or learns (409)
// that it must re-baseline.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(r.PathValue("id"))
	if e == nil {
		writeError(w, http.StatusNotFound, "graph %q not loaded", r.PathValue("id"))
		return
	}
	var req SubscribeRequest
	if !decodeBody(w, r, "subscribe request", &req) {
		return
	}
	// A subscription names its family like a query; it has no algorithm.
	f, err := resolveFamily(req.Kind, req.K, req.Pattern, "")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	tenant := tenantOf(r)
	release, err := s.adm.acquire(tenant, int64(e.g.Options().MemoryWords))
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer release()

	// Register the standing query. The request context is the
	// subscription's lifetime: a client disconnect cancels it, which ends
	// the subscription and this stream.
	sub, err := f.subscribe(r.Context(), e.g, repro.Query{Workers: req.Workers})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, repro.ErrGraphClosed) {
			status = http.StatusGone
		}
		writeError(w, status, "subscribe %q: %v", e.id, err)
		return
	}
	defer sub.Close()

	// Reconnect handshake: registration is atomic against updates, so
	// sub.Generation() is exactly where this stream begins. If the client
	// already integrated a different generation, the gap (or overlap) is
	// unservable — changes for it were never retained — and the client
	// must re-baseline with a full query.
	if req.AfterGeneration != nil && *req.AfterGeneration != sub.Generation() {
		writeError(w, http.StatusConflict,
			"subscription resumes at generation %d but the client integrated %d; re-baseline with a full query",
			sub.Generation(), *req.AfterGeneration)
		return
	}

	// send flushes every line: a change the client cannot see yet is a
	// change that did not happen for it.
	nw := s.newNDJSON(w, strconv.FormatUint(sub.Generation(), 10))
	nw.send(WireSubscribed{Subscribed: true, Generation: sub.Generation()})

	var delivered, reads, writes uint64
	lastGen := sub.Generation()
	for cs := range sub.Changes() {
		err := nw.send(ToWireChange(cs))
		delivered++
		lastGen = cs.Generation
		reads += cs.Stats.BlockReads
		writes += cs.Stats.BlockWrites
		// The client went away: stop draining and let the deferred Close
		// unregister the standing query.
		if err != nil {
			break
		}
	}

	subErr := sub.Err()
	end := WireSubEnd{
		Done:       subErr == nil || errors.Is(subErr, repro.ErrGraphClosed) || errors.Is(subErr, context.Canceled),
		Generation: lastGen,
		Delivered:  delivered,
	}
	if subErr != nil {
		end.Error = fmt.Sprintf("subscription ended: %v", subErr)
	}
	nw.send(end)
	s.adm.recordQuery(tenant, delivered, reads, writes, nw.bytes)
}
