// Epoch-based reclamation for plugin instances.
//
// The paper's kernel frees an instance synchronously: with a single flow
// of control, no packet can be in flight through a gate while the
// control path runs. A multi-worker forwarding engine loses that
// guarantee — a worker may have fetched an instance pointer through a
// FIX an instant before free-instance runs. The fix is the classic
// quiescent-state scheme: the control path first makes the instance
// unreachable (the AIU unbinds its filters and flushes its cached
// flows), then defers the destructive callback until every worker that
// was on-CPU at that moment has passed a quiescent point (the gap
// between two packets). Workers that are parked on their queue are
// offline and never block reclamation.
package pcu

import (
	"sync"
	"sync/atomic"
	"time"
)

// WorkerEpoch is one worker's quiescence cell. The worker stores the
// global epoch it has observed, tagged with an online bit; readers (the
// reclaimer) treat an offline worker as quiesced. The cell is padded so
// adjacent workers' announcements never share a cache line.
type WorkerEpoch struct {
	rc *Reclaimer
	// seen is (epoch<<1)|1 while the worker is processing packets, 0
	// while it is parked. Stored by the owning worker, read by Collect.
	seen atomic.Uint64
	_    [48]byte // pad: one worker's store must not invalidate a neighbor's line
}

// Online announces that the worker is about to process packets. Must be
// called after unparking, before the first dispatch.
//
//eisr:fastpath
func (w *WorkerEpoch) Online() {
	w.seen.Store(w.rc.epoch.Load()<<1 | 1)
}

// Quiesce announces a quiescent point: the worker holds no instance
// pointer fetched before this call. Workers call it between packets.
//
//eisr:fastpath
func (w *WorkerEpoch) Quiesce() {
	w.seen.Store(w.rc.epoch.Load()<<1 | 1)
}

// Offline announces that the worker is parking (blocking on its queue).
// An offline worker never delays reclamation.
//
//eisr:fastpath
func (w *WorkerEpoch) Offline() {
	w.seen.Store(0)
}

// deferred is one destruction waiting for quiescence.
type deferred struct {
	epoch uint64
	fn    func() error
}

// Reclaimer defers instance destruction until every online worker has
// passed a quiescent point after the deferral. With no workers online,
// Defer degenerates to a synchronous call — single-threaded routers keep
// the paper's synchronous free-instance semantics exactly.
type Reclaimer struct {
	// epoch is the global epoch, bumped on every Defer. Read lock-free
	// by workers on their quiesce path.
	epoch atomic.Uint64

	mu      sync.Mutex
	workers []*WorkerEpoch
	pending []deferred
	onError func(error)
}

// NewReclaimer returns an empty reclaimer at epoch 1.
func NewReclaimer() *Reclaimer {
	rc := &Reclaimer{}
	rc.epoch.Store(1)
	return rc
}

// SetErrorFunc installs a sink for errors returned by deferred callbacks
// that run asynchronously (inline Defer returns them directly). Call at
// assembly time.
func (rc *Reclaimer) SetErrorFunc(f func(error)) { rc.onError = f }

// Register adds a worker cell. The cell starts offline.
func (rc *Reclaimer) Register() *WorkerEpoch {
	w := &WorkerEpoch{rc: rc}
	rc.mu.Lock()
	rc.workers = append(rc.workers, w)
	rc.mu.Unlock()
	return w
}

// Unregister removes a worker cell, which must be offline: the worker
// has exited and holds no instance pointer.
func (rc *Reclaimer) Unregister(w *WorkerEpoch) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i, x := range rc.workers {
		if x == w {
			rc.workers = append(rc.workers[:i], rc.workers[i+1:]...)
			return
		}
	}
}

// Defer schedules fn to run once every worker online at the time of the
// call has quiesced. The caller must already have made the resource
// unreachable (unbound, flushed) — the grace period only covers readers
// that picked it up before that. If no worker is online, fn runs
// immediately and its error is returned; otherwise Defer returns nil and
// the error (if any) goes to the SetErrorFunc sink when fn eventually
// runs in Collect.
func (rc *Reclaimer) Defer(fn func() error) error {
	rc.mu.Lock()
	e := rc.epoch.Add(1)
	if !rc.anyOnlineBehindLocked(e) {
		rc.mu.Unlock()
		return fn()
	}
	rc.pending = append(rc.pending, deferred{epoch: e, fn: fn})
	rc.mu.Unlock()
	return nil
}

// anyOnlineBehindLocked reports whether some worker is online with a
// seen epoch older than e. Called with rc.mu held.
func (rc *Reclaimer) anyOnlineBehindLocked(e uint64) bool {
	for _, w := range rc.workers {
		s := w.seen.Load()
		if s != 0 && s>>1 < e {
			return true
		}
	}
	return false
}

// Collect runs every deferred destruction whose grace period has
// elapsed, outside the reclaimer lock (the callbacks are plugin code),
// and returns how many ran. Drive it from the run loop or a janitor.
func (rc *Reclaimer) Collect() int {
	rc.mu.Lock()
	var ready []deferred
	kept := rc.pending[:0]
	for _, d := range rc.pending {
		if rc.anyOnlineBehindLocked(d.epoch) {
			kept = append(kept, d)
		} else {
			ready = append(ready, d)
		}
	}
	rc.pending = kept
	onError := rc.onError
	rc.mu.Unlock()
	for _, d := range ready {
		if err := d.fn(); err != nil && onError != nil {
			onError(err)
		}
	}
	return len(ready)
}

// Pending reports how many destructions are still waiting.
func (rc *Reclaimer) Pending() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.pending)
}

// Drain polls Collect until nothing is pending or the timeout elapses,
// reporting whether it drained. Tests and shutdown paths use it.
func (rc *Reclaimer) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		rc.Collect()
		if rc.Pending() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
}
