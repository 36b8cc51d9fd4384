// Command craidd is the experiment-fabric service: a work queue that
// schedules simulation cells over local workers and remote worker
// processes, streams results back to submitters as cells finish, and
// caches every completed cell content-addressed by its canonical
// config hash — so re-running a table recomputes nothing.
//
// Usage:
//
//	craidd -listen :8440 -workers 4 -cache ~/.cache/craid
//	craidd -join http://host:8440 -workers 2
//
// The first form serves the fabric: submitters POST RunConfig batches
// to /v1/jobs (craidbench -remote, craidsim -remote) and worker
// processes poll /v1/lease. The second form is such a worker process:
// it leases cells from a remote craidd, simulates them, and posts the
// results back, heartbeating while a cell runs so the lease survives
// long simulations. A worker that dies mid-cell simply stops
// heartbeating; the service re-issues its cells to someone else after
// -lease-ttl.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"craid/internal/fabric"
)

func main() {
	listen := flag.String("listen", ":8440", "serve the fabric API on this address")
	join := flag.String("join", "", "be a worker for the craidd at this URL instead of serving")
	workers := flag.Int("workers", runtime.NumCPU(),
		"concurrent simulation cells (local workers when serving, lease loops when joining)")
	cache := flag.String("cache", defaultCacheDir(),
		"content-addressed result store directory")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second,
		"re-issue a worker's cell after this long without a heartbeat")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("craidd: ")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *join != "" {
		runWorkers(ctx, *join, *workers)
		return
	}
	serve(ctx, *listen, *cache, *workers, *leaseTTL)
}

func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "craid-fabric")
	}
	return "craid-fabric"
}

// serve runs the fabric service until the context is cancelled.
func serve(ctx context.Context, listen, cache string, workers int, leaseTTL time.Duration) {
	store, err := fabric.OpenStore(cache)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := fabric.NewServer(fabric.Options{
		Store:    store,
		LeaseTTL: leaseTTL,
		Logf:     log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if workers > 0 {
		srv.StartLocalWorkers(workers)
	}
	entries, _ := store.Len()
	log.Printf("serving on %s: %d local worker(s), cache %s (%d cached cell(s)), lease TTL %s",
		listen, workers, cache, entries, leaseTTL)

	// ReadHeaderTimeout bounds how long a client may dribble request
	// headers; bodies are bounded by the handlers' size limits, and the
	// long-lived streaming job responses rule out a whole-request
	// timeout.
	hs := &http.Server{Addr: listen, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	select {
	case err := <-done:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	srv.Close()
}

// runWorkers drives n lease loops against a remote craidd until the
// context is cancelled.
func runWorkers(ctx context.Context, base string, n int) {
	if n < 1 {
		n = 1
	}
	remote := fabric.NewRemote(base)
	log.Printf("joining %s with %d worker loop(s)", base, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			w := &fabric.Worker{API: remote}
			w.Loop(ctx)
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	fmt.Fprintln(os.Stderr, "craidd: worker stopped")
}
