package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledClientIsDisconnected sends part of a request's headers to the
// daemon's HTTP server and then stalls. The server must close the
// connection once readHeaderTimeout has passed instead of holding it open.
// It must also close idle connections and set no write timeout.
func TestStalledClientIsDisconnected(t *testing.T) {
	srv := httpServer("", http.NotFoundHandler())
	if srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Errorf("IdleTimeout %v, WriteTimeout %v; want an idle timeout and no write timeout", srv.IdleTimeout, srv.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /api/v1/stats HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open %v after a stalled request: %v", time.Since(start).Round(time.Second), err)
	}
}
