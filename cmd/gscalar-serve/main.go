// Command gscalar-serve runs the gscalar sweep server: an HTTP daemon that
// accepts simulation points (config x arch x workload x scale), runs them
// on a bounded worker pool, and memoizes every completed Result in a
// disk-backed content-addressed store. Restarting the server over the same
// store directory never re-simulates a completed point, and a graceful
// shutdown (SIGINT/SIGTERM) persists unfinished points for the next life.
//
// Usage:
//
//	gscalar-serve [-addr :8370] [-store DIR] [-workers N] [-queue N]
//
// See docs/architecture.md ("Serving & result store") for the API and the
// store layout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gscalar/internal/serve"
	"gscalar/internal/store"
)

func main() {
	addr := flag.String("addr", ":8370", "HTTP listen address")
	dir := flag.String("store", "gscalar-store", "result store directory (created if absent)")
	workers := flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth in points (0 = 1024)")
	telemetry := flag.Bool("telemetry", true, "collect per-run metrics and persist them with each result")
	flag.Parse()

	if err := run(*addr, *dir, *workers, *queue, *telemetry); err != nil {
		fmt.Fprintln(os.Stderr, "gscalar-serve:", err)
		os.Exit(1)
	}
}

func run(addr, dir string, workers, queue int, telemetry bool) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Store:      st,
		Workers:    workers,
		QueueDepth: queue,
		Telemetry:  telemetry,
	})
	if err != nil {
		return err
	}
	stats := srv.Stats()
	log.Printf("store %s: %d completed points", st.Dir(), stats.StoreEntries)
	log.Printf("listening on %s (%d workers, queue depth %d)", addr, stats.Workers, stats.QueueCap)

	httpSrv := httpServer(addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
	}

	log.Printf("shutting down: draining in-flight simulations")
	pending, derr := srv.Drain()
	if derr != nil {
		log.Printf("drain: %v", derr)
	} else if pending > 0 {
		log.Printf("drain: %d pending points persisted; restart to resume", pending)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return derr
}

// A client gets readHeaderTimeout to send its request headers, and an idle
// keep-alive connection is closed after idleTimeout, so a client that
// stalls cannot hold a connection open forever. There is no write timeout:
// GET /api/v1/jobs/{id}/result writes a whole sweep's Results.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func httpServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
