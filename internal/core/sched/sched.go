// Package sched provides the shared scheduling primitives of the parallel
// campaign engines: a token pool that bounds the number of simultaneously
// live workers across a whole campaign, and a progress meter that
// serialises progress callbacks and tracks aggregate throughput.
//
// Both the injection campaigns (internal/core/gefin) and the beam
// simulator (internal/core/beam) follow the same shape: a top-level Run
// owns one Pool sized to the configured worker budget, every workload
// acquires one token for its primary workbench, and the per-workload
// engine opportunistically grabs extra tokens for clone workbenches while
// any are free. The total number of machines stepping at once therefore
// never exceeds the budget, regardless of how many workloads are in
// flight.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// ErrConfig marks a campaign configuration an engine refuses before it
// runs anything; the campaign commands exit with status 2 on it, as on a
// malformed flag.
var ErrConfig = errors.New("invalid campaign configuration")

// Resolve maps a requested worker count to an effective one: values below
// one select runtime.GOMAXPROCS(0).
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Pool is a counting semaphore over campaign worker slots.
type Pool struct {
	tokens chan struct{}
}

// NewPool builds a pool with n slots; n below zero is treated as zero (a
// pool from which TryAcquire never succeeds).
func NewPool(n int) *Pool {
	if n < 0 {
		n = 0
	}
	return &Pool{tokens: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free. It must not be called on a
// zero-capacity pool.
func (p *Pool) Acquire() { p.tokens <- struct{}{} }

// AcquireCtx blocks until a slot is free or ctx is done, reporting
// ctx's error in the latter case (no slot is held on error).
func (p *Pool) AcquireCtx(ctx context.Context) error {
	select {
	case p.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire claims a slot without blocking, reporting success.
func (p *Pool) TryAcquire() bool {
	select {
	case p.tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot to the pool.
func (p *Pool) Release() { <-p.tokens }

// Cap returns the pool's slot count.
func (p *Pool) Cap() int { return cap(p.tokens) }

// InUse returns the number of slots currently held — the pool-occupancy
// reading the observability gauges export. It is a racy snapshot by
// nature (tokens move concurrently), which is fine for monitoring.
func (p *Pool) InUse() int { return len(p.tokens) }

// Drain gracefully shuts the pool down: it claims every slot itself, so
// new Acquire/TryAcquire callers are starved while workers already
// holding slots finish and Release them. It returns nil once all slots
// are held (every in-flight worker has finished), or ctx's error if the
// context expires first — in which case the slots claimed so far are
// returned, leaving the pool usable again.
//
// A long-running service calls Drain on SIGTERM: it stops claiming new
// shards, lets in-flight ones complete, and exits cleanly. After a
// successful Drain the pool is permanently empty; it is the caller's
// signal that no worker holds a slot.
func (p *Pool) Drain(ctx context.Context) error {
	held := 0
	for held < cap(p.tokens) {
		select {
		case p.tokens <- struct{}{}:
			held++
		case <-ctx.Done():
			for i := 0; i < held; i++ {
				<-p.tokens
			}
			return ctx.Err()
		}
	}
	return nil
}

// Snapshot is the aggregate state handed to a progress emission.
type Snapshot struct {
	// Done and Total count items (injections, strikes) campaign-wide.
	// Total grows as workloads register their plans.
	Done, Total int
	// Workers is the number of workers live at the instant of the tick.
	Workers int
	// Rate is the aggregate throughput in items per second since the
	// meter was created; divide by Workers for per-worker throughput.
	Rate float64
	// ETA estimates the remaining wall time at the current rate; zero
	// until a rate is established.
	ETA time.Duration
}

// Meter serialises progress accounting for a campaign. Tick holds the
// meter's lock while invoking the emission callback, so emissions never
// run concurrently with one another even when ticks originate from many
// worker goroutines — callback state needs no further locking.
type Meter struct {
	mu      sync.Mutex
	start   time.Time
	done    int
	total   int
	workers int
}

// NewMeter starts a meter; the throughput clock begins now.
func NewMeter() *Meter { return &Meter{start: time.Now()} }

// AddTotal registers n more items of expected work.
func (m *Meter) AddTotal(n int) {
	m.mu.Lock()
	m.total += n
	m.mu.Unlock()
}

// WorkerStarted records a worker joining the campaign.
func (m *Meter) WorkerStarted() {
	m.mu.Lock()
	m.workers++
	m.mu.Unlock()
}

// WorkerDone records a worker leaving the campaign.
func (m *Meter) WorkerDone() {
	m.mu.Lock()
	m.workers--
	m.mu.Unlock()
}

// Tick records one completed item and invokes emit (if non-nil) with the
// aggregate snapshot, under the meter's lock.
//
// Workloads register their plans with AddTotal as they start, so early in
// a multi-workload campaign total may lag done (a workload's first ticks
// can land before a sibling's AddTotal). The remaining-work estimate is
// clamped at zero in that window — ETA reads zero rather than negative —
// and recovers as soon as the totals catch up. Rate is measured against
// the meter's creation time, which predates plan registration; it
// therefore slightly underestimates steady-state throughput during
// campaign ramp-up and converges as the campaign runs.
func (m *Meter) Tick(emit func(Snapshot)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done++
	s := Snapshot{Done: m.done, Total: m.total, Workers: m.workers}
	if elapsed := time.Since(m.start).Seconds(); elapsed > 0 {
		s.Rate = float64(m.done) / elapsed
		remaining := m.total - m.done
		if remaining < 0 {
			remaining = 0 // late plan registration: clamp, don't go negative
		}
		if s.Rate > 0 && remaining > 0 {
			s.ETA = time.Duration(float64(remaining) / s.Rate * float64(time.Second))
		}
		if s.ETA < 0 {
			s.ETA = 0 // guard duration overflow at extreme remaining/rate ratios
		}
	}
	if emit != nil {
		emit(s)
	}
}
