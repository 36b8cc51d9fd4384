package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"craid/internal/experiments"
)

// Wire types. The fabric speaks JSON: configs and results are the
// experiments structs verbatim (process-local fields like TraceAt are
// tagged out), and job results stream back as newline-delimited JSON
// so submitters see each cell the moment it lands.
type (
	// jobRequest is the POST /v1/jobs body.
	jobRequest struct {
		Cells []experiments.RunConfig `json:"cells"`
	}
	// jobLine is one streamed completion. Index references the
	// submitted batch; exactly one of Result/Error is set.
	jobLine struct {
		Index  int                    `json:"index"`
		Result *experiments.RunResult `json:"result,omitempty"`
		Error  string                 `json:"error,omitempty"`
	}
	// leaseRequest is the POST /v1/lease body.
	leaseRequest struct {
		WaitMillis int64 `json:"wait_ms"`
	}
	// leaseResponse is the 200 body of POST /v1/lease.
	leaseResponse struct {
		LeaseID   int64                 `json:"lease_id"`
		Hash      string                `json:"hash"`
		Config    experiments.RunConfig `json:"config"`
		TTLMillis int64                 `json:"ttl_ms"`
	}
	// heartbeatRequest is the POST /v1/heartbeat body.
	heartbeatRequest struct {
		LeaseID int64 `json:"lease_id"`
	}
	// completeRequest is the POST /v1/complete body.
	completeRequest struct {
		LeaseID int64                  `json:"lease_id"`
		Hash    string                 `json:"hash"`
		Result  *experiments.RunResult `json:"result,omitempty"`
		Error   string                 `json:"error,omitempty"`
	}
	completeResponse struct {
		Accepted bool `json:"accepted"`
	}
	// StatsSnapshot is the GET /v1/stats body.
	StatsSnapshot struct {
		Scheduler    Stats  `json:"scheduler"`
		StoreDir     string `json:"store_dir"`
		StoreEntries int    `json:"store_entries"`
		LocalWorkers int    `json:"local_workers"`
	}
)

// Request body ceilings, enforced with http.MaxBytesReader so a
// hostile or buggy client cannot make the service buffer an unbounded
// body. A completion carries a whole RunResult, whose per-second series
// (CVs, SeqFracs) reach tens of MB for a week-long trace; a job carries
// a few hundred bytes per cell; lease and heartbeat bodies are one
// small object. Variables rather than constants so tests can lower them.
var (
	maxJobBody      int64 = 32 << 20
	maxCompleteBody int64 = 256 << 20
	maxControlBody  int64 = 64 << 10
)

// Options configures a Server.
type Options struct {
	// Store caches completed cells content-addressed by config hash.
	// Required.
	Store *Store
	// LeaseTTL is how long a worker may go without a heartbeat before
	// its cells are re-issued (default 15s).
	LeaseTTL time.Duration
	// Runner executes one cell on the local workers (default
	// experiments.Run; tests substitute instrumented runners).
	Runner func(experiments.RunConfig) (experiments.RunResult, error)
	// Logf, when non-nil, receives operational messages.
	Logf func(format string, args ...any)
}

// Server is the craidd core: scheduler + result store + the HTTP
// surface, independent of any particular listener so tests drive it
// through net/http/httptest and cmd/craidd through http.ListenAndServe.
type Server struct {
	sched *scheduler
	store *Store
	run   func(experiments.RunConfig) (experiments.RunResult, error)
	logf  func(format string, args ...any)

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workers int
}

// NewServer assembles a fabric server.
func NewServer(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("fabric: NewServer needs a Store")
	}
	run := opts.Runner
	if run == nil {
		run = experiments.Run
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		sched:  newScheduler(opts.LeaseTTL),
		store:  opts.Store,
		run:    run,
		logf:   logf,
		ctx:    ctx,
		cancel: cancel,
	}, nil
}

// Submit schedules one batch: cache hits emit immediately, identical
// in-flight configs coalesce onto one computation, and everything else
// queues for the worker pool. Blocks until every cell has emitted.
// Completions arrive from worker goroutines in finish order;
// experiments.Collect (on the submitter side) restores config order.
func (s *Server) Submit(cfgs []experiments.RunConfig, emit func(experiments.CellResult)) error {
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		i := i
		hash, err := experiments.ConfigHash(cfg)
		if err != nil {
			emit(experiments.CellResult{Index: i, Err: err})
			continue
		}
		if res, ok, err := s.store.Get(hash); err != nil {
			emit(experiments.CellResult{Index: i, Err: err})
			continue
		} else if ok {
			s.sched.noteCacheHit()
			emit(experiments.CellResult{Index: i, Result: res})
			continue
		}
		wg.Add(1)
		s.sched.enqueue(hash, cfg, func(res experiments.RunResult, err error) {
			defer wg.Done()
			emit(experiments.CellResult{Index: i, Result: res, Err: err})
		})
	}
	wg.Wait()
	return nil
}

// Complete accepts one worker's finished cell: the first result for a
// hash is persisted to the store and fanned out to every waiting
// submitter; later duplicates (stale leases racing a requeue) report
// accepted=false and are dropped. A successful result whose config does
// not hash to hash is rejected the same way before it touches the
// scheduler: nothing is stored, no waiter wakes, and the lease stays
// as it was, so it expires and the cell is requeued.
func (s *Server) Complete(leaseID int64, hash string, res experiments.RunResult, errMsg string) bool {
	cellFailed := errMsg != ""
	if !cellFailed {
		got, err := experiments.ConfigHash(res.Cfg)
		if err == nil && got != hash {
			err = fmt.Errorf("its config hashes to %s", got)
		}
		if err != nil {
			s.sched.noteMismatch()
			s.logf("fabric: lease %d: rejected the result for %s: %v", leaseID, hash, err)
			return false
		}
	}
	ws, ok := s.sched.complete(leaseID, hash, cellFailed)
	if !ok {
		return false
	}
	var cellErr error
	if cellFailed {
		cellErr = fmt.Errorf("fabric: cell failed on worker: %s", errMsg)
	} else if err := s.store.Put(hash, res); err != nil {
		// The result is still good — serve it to the waiters — but the
		// cache missed a fill; log and carry on.
		s.logf("fabric: caching %s: %v", hash, err)
	}
	for _, w := range ws {
		w(res, cellErr)
	}
	return true
}

// Lease checks one cell out to a worker, blocking up to maxWait.
func (s *Server) Lease(maxWait time.Duration) (*Lease, error) {
	return s.sched.lease(maxWait), nil
}

// Heartbeat renews a lease, reporting whether it still exists.
func (s *Server) Heartbeat(leaseID int64) (bool, error) {
	return s.sched.heartbeat(leaseID), nil
}

// CompleteLease implements the worker API over the in-process server.
func (s *Server) CompleteLease(leaseID int64, hash string, res experiments.RunResult, errMsg string) error {
	s.Complete(leaseID, hash, res, errMsg)
	return nil
}

// Stats snapshots the server for /v1/stats.
func (s *Server) Stats() StatsSnapshot {
	entries, err := s.store.Len()
	if err != nil {
		s.logf("fabric: store walk: %v", err)
	}
	return StatsSnapshot{
		Scheduler:    s.sched.snapshot(),
		StoreDir:     s.store.Dir(),
		StoreEntries: entries,
		LocalWorkers: s.workers,
	}
}

// StartLocalWorkers spawns n in-process workers driving the scheduler
// directly — `craidd -workers N` and the single-host fast path. They
// run until Close.
func (s *Server) StartLocalWorkers(n int) {
	for i := 0; i < n; i++ {
		w := &Worker{API: s, Run: s.run, PollWait: time.Second}
		s.workers++
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Loop(s.ctx)
		}()
	}
}

// Close stops the local workers and wakes blocked lease polls.
func (s *Server) Close() {
	s.cancel()
	s.sched.close()
	s.wg.Wait()
}

// Handler returns the craidd HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/complete", s.handleComplete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleJobs runs one submitted batch, streaming completions back as
// ndjson the moment each cell resolves (chunked transfer keeps the
// connection open for the duration; a cached batch answers instantly).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !decodeBody(w, r, maxJobBody, "job request", &req) {
		return
	}
	if len(req.Cells) == 0 {
		http.Error(w, "fabric: job has no cells", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	s.logf("fabric: job with %d cell(s) from %s", len(req.Cells), r.RemoteAddr)
	s.Submit(req.Cells, func(cr experiments.CellResult) {
		mu.Lock()
		defer mu.Unlock()
		line := jobLine{Index: cr.Index}
		if cr.Err != nil {
			line.Error = cr.Err.Error()
		} else {
			res := cr.Result
			line.Result = &res
		}
		if err := enc.Encode(line); err != nil {
			return // client went away; workers still finish and fill the cache
		}
		if flusher != nil {
			flusher.Flush()
		}
	})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeBody(w, r, maxControlBody, "lease request", &req) {
		return
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	if wait <= 0 {
		wait = time.Millisecond
	}
	if wait > time.Minute {
		wait = time.Minute
	}
	l := s.sched.lease(wait)
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, leaseResponse{
		LeaseID:   l.ID,
		Hash:      l.Hash,
		Config:    l.Config,
		TTLMillis: l.TTL.Milliseconds(),
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(w, r, maxControlBody, "heartbeat", &req) {
		return
	}
	if !s.sched.heartbeat(req.LeaseID) {
		http.Error(w, "fabric: lease expired", http.StatusGone)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decodeBody(w, r, maxCompleteBody, "completion", &req) {
		return
	}
	var res experiments.RunResult
	if req.Result != nil {
		res = *req.Result
	}
	accepted := s.Complete(req.LeaseID, req.Hash, res, req.Error)
	writeJSON(w, completeResponse{Accepted: accepted})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// decodeBody decodes r's JSON body into v, reading at most limit bytes.
// On failure it answers 413 (body over the limit) or 400 (malformed)
// itself and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("fabric: %s exceeds %d bytes", what, limit), http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, "fabric: bad "+what+": "+err.Error(), http.StatusBadRequest)
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
