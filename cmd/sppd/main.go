// Command sppd serves simulations over HTTP: Ensemble grid specs go in,
// content-addressed cell results come out (internal/serve). Repeated and
// overlapping grids are served from the result cache byte-identically to a
// fresh computation, and the endpoints expose SSE checkpoint feeds and
// bit-exact trial replays (README "sppd" and DESIGN.md §12).
//
// Usage:
//
//	sppd                       # listen on 127.0.0.1:8377, in-memory cache only
//	sppd -addr :9000           # explicit listen address
//	sppd -workers 4            # bound concurrent cell simulations
//	sppd -cache 10000          # in-memory LRU capacity (cells)
//	sppd -dir /var/lib/sppd    # persist results and replays on disk
//
// The first line on stdout is always "sppd listening on <resolved addr>",
// printed after the listener is bound — scripts (and examples/client) can
// pass -addr 127.0.0.1:0 and parse the resolved port from it.
//
// SIGINT or SIGTERM drains the server: it stops accepting connections,
// lets in-flight requests (synchronous grid submits, SSE feeds) finish for
// up to shutdownGrace, and exits 0. Requests still running when the grace
// period ends are cut off and sppd exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sspp/internal/serve"
)

// Connection timeouts. There is deliberately no write timeout: synchronous
// grid submits and SSE checkpoint feeds legitimately run for as long as
// their simulations do.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections idle for this long.
	idleTimeout = 2 * time.Minute
	// shutdownGrace is how long a drain waits for in-flight requests.
	shutdownGrace = 30 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sppd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks a free port)")
		workers = flag.Int("workers", 0, "max concurrent cell simulations (0 = GOMAXPROCS)")
		cache   = flag.Int("cache", 0, "in-memory result cache capacity in cells (0 = 4096)")
		dir     = flag.String("dir", "", "on-disk store directory (empty = in-memory only)")
	)
	flag.Parse()

	srv, err := serve.NewServer(serve.Options{Workers: *workers, CacheEntries: *cache, Dir: *dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("sppd listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
