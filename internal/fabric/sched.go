package fabric

import (
	"sync"
	"time"

	"craid/internal/experiments"
)

// Lease is one cell checked out to a worker. The worker must Complete
// it (or keep Heartbeating) within TTL or the scheduler assumes the
// worker died and re-issues the cell to someone else.
type Lease struct {
	ID     int64
	Hash   string
	Config experiments.RunConfig
	TTL    time.Duration
}

// Stats counts scheduler activity. Counters are cumulative for the
// process; Pending/Active are gauges sampled at snapshot time.
type Stats struct {
	Enqueued   int64 // cells accepted for computation (cache misses)
	Coalesced  int64 // submissions attached to an identical in-flight cell
	CacheHits  int64 // submissions served straight from the result store
	Leases     int64 // leases granted
	Heartbeats int64 // successful lease renewals
	Expired    int64 // heartbeats/completions that missed their lease
	Requeues   int64 // expired leases whose cell was re-issued
	Computed   int64 // results accepted (first result per cell)
	CellErrors int64 // cells completing with a simulation error
	Duplicates int64 // completions dropped because the cell was already resolved
	Mismatched int64 // results rejected because their config does not hash to the completed cell

	Pending int // cells queued, not leased (gauge)
	Active  int // leases outstanding (gauge)
}

// waiterFn delivers one resolved cell to a submitter.
type waiterFn func(experiments.RunResult, error)

// cellState is one distinct configuration wanted by ≥1 submitter.
// A cell is either queued (in pending, no lease) or leased; it leaves
// byHash exactly once, when its first result arrives.
type cellState struct {
	hash    string
	cfg     experiments.RunConfig
	waiters []waiterFn
	queued  bool
}

type leaseState struct {
	hash    string
	expires time.Time
}

// scheduler is the fabric's work queue: FIFO pending cells, a lease
// table with TTL/heartbeat/requeue, and per-cell waiter lists so any
// number of submitters (and duplicate submissions of one config)
// share a single computation. First result wins: completions for a
// hash that already resolved are counted and dropped, which makes
// lease requeues safe — the presumed-dead worker's late result and
// the replacement's result can both arrive, in either order.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*cellState
	byHash  map[string]*cellState
	leases  map[int64]*leaseState
	nextID  int64
	ttl     time.Duration
	stats   Stats
	closed  bool
	now     func() time.Time // injectable clock for tests
}

func newScheduler(ttl time.Duration) *scheduler {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	s := &scheduler{
		byHash: make(map[string]*cellState),
		leases: make(map[int64]*leaseState),
		ttl:    ttl,
		now:    time.Now,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue registers interest in one cell, creating it if no identical
// config is already queued or leased.
func (s *scheduler) enqueue(hash string, cfg experiments.RunConfig, w waiterFn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.byHash[hash]; ok {
		c.waiters = append(c.waiters, w)
		s.stats.Coalesced++
		return
	}
	c := &cellState{hash: hash, cfg: cfg, waiters: []waiterFn{w}, queued: true}
	s.byHash[hash] = c
	s.pending = append(s.pending, c)
	s.stats.Enqueued++
	s.cond.Broadcast()
}

// noteMismatch counts a completion rejected for carrying another
// configuration's result.
func (s *scheduler) noteMismatch() {
	s.mu.Lock()
	s.stats.Mismatched++
	s.mu.Unlock()
}

// noteCacheHit counts a submission served from the result store.
func (s *scheduler) noteCacheHit() {
	s.mu.Lock()
	s.stats.CacheHits++
	s.mu.Unlock()
}

// lease blocks up to maxWait for a cell and checks it out. Returns nil
// when nothing became available (or the scheduler closed) — workers
// just poll again. Expired leases are swept here, so a dead worker's
// cells are re-issued the next time anyone polls.
func (s *scheduler) lease(maxWait time.Duration) *Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The poll deadline is wall time on purpose: s.now is injectable so
	// tests can age LEASES, but a frozen test clock must not turn an
	// empty-queue poll into a spin.
	deadline := time.Now().Add(maxWait)
	for {
		s.sweepLocked()
		if len(s.pending) > 0 {
			c := s.pending[0]
			s.pending = s.pending[1:]
			c.queued = false
			s.nextID++
			id := s.nextID
			s.leases[id] = &leaseState{hash: c.hash, expires: s.now().Add(s.ttl)}
			s.stats.Leases++
			return &Lease{ID: id, Hash: c.hash, Config: c.cfg, TTL: s.ttl}
		}
		if s.closed {
			return nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil
		}
		// Wake at the poll deadline, and at least every ttl/2 so an
		// expired lease is requeued promptly even with no other
		// scheduler traffic.
		nap := remaining
		if s.ttl/2 < nap {
			nap = s.ttl / 2
		}
		timer := time.AfterFunc(nap, s.cond.Broadcast)
		s.cond.Wait()
		timer.Stop()
	}
}

// sweepLocked requeues cells whose lease expired without a heartbeat.
func (s *scheduler) sweepLocked() {
	now := s.now()
	for id, l := range s.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(s.leases, id)
		c, ok := s.byHash[l.hash]
		if !ok || c.queued {
			continue // already resolved, or already requeued
		}
		c.queued = true
		s.pending = append(s.pending, c)
		s.stats.Requeues++
	}
}

// heartbeat extends a live lease, reporting whether it still exists.
// A false return tells the worker its lease expired and was (or will
// be) re-issued: it may finish the cell anyway — first result wins —
// but must not expect its completion to be counted.
func (s *scheduler) heartbeat(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[id]
	if !ok {
		s.stats.Expired++
		return false
	}
	l.expires = s.now().Add(s.ttl)
	s.stats.Heartbeats++
	return true
}

// complete resolves the cell for hash, returning its waiters exactly
// once. Later completions of the same hash — stale lease, requeue race
// — return ok=false and are dropped. The caller invokes the returned
// waiters after any side effects (the server persists the result to
// the store first), outside the scheduler lock.
func (s *scheduler) complete(leaseID int64, hash string, cellErr bool) ([]waiterFn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.leases[leaseID]; ok {
		delete(s.leases, leaseID)
	}
	c, ok := s.byHash[hash]
	if !ok {
		s.stats.Duplicates++
		return nil, false
	}
	delete(s.byHash, hash)
	if c.queued {
		// The cell was requeued after this worker's lease expired but
		// its result arrived first anyway: accept it and withdraw the
		// queued duplicate.
		for i, p := range s.pending {
			if p == c {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		c.queued = false
	}
	if cellErr {
		s.stats.CellErrors++
	} else {
		s.stats.Computed++
	}
	ws := c.waiters
	c.waiters = nil
	return ws, true
}

// snapshot returns the stats with gauges filled in.
func (s *scheduler) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Pending = len(s.pending)
	st.Active = len(s.leases)
	return st
}

// close wakes every blocked lease poll; subsequent polls return nil
// immediately once the queue drains.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
