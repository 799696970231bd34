package main

import (
	"io"
	"net"
	"net/http"
	"testing"
)

// TestNewHTTPServerDeadlines: both listeners get the header and idle
// deadlines, no write deadline (streams are long-lived), and serve their
// handler.
func TestNewHTTPServerDeadlines(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok") })
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Errorf("ReadHeaderTimeout=%v IdleTimeout=%v, want %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Errorf("deadlines must be positive: %v, %v", readHeaderTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout=%v ReadTimeout=%v would cut long-lived streams", hs.WriteTimeout, hs.ReadTimeout)
	}

	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Errorf("served %q, want the handler's %q", body, "ok")
	}
}
