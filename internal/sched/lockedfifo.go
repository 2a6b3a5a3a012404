package sched

import (
	"sync"
	"sync/atomic"

	"github.com/routerplugins/eisr/internal/pkt"
)

// LockedFIFO is a FIFO safe for concurrent producers and consumers: the
// per-interface output queue of the parallel forwarding engine, where
// several workers enqueue while the drain loop dequeues. The lock is
// per interface — never shared across interfaces — so it serializes
// only the packets that were going to serialize on the link anyway.
// It is deliberately NOT marked fast-path: the analyzer forbids
// exclusive locks there, and the enqueue is the last step of the
// pipeline, past every gate.
//
// n mirrors the queue's length: it is stored under mu after every
// change, so Dequeue and Len answer an empty queue without the lock. A
// packet enqueued while a Dequeue runs is never stranded: its Enqueue
// stores n before it returns, and the next Dequeue reads it.
type LockedFIFO struct {
	n  atomic.Int64
	mu sync.Mutex
	f  FIFO
}

// NewLockedFIFO builds a concurrent FIFO with a packet limit (0 = 512).
func NewLockedFIFO(limit int) *LockedFIFO {
	q := &LockedFIFO{}
	q.f.limit = limit
	if q.f.limit <= 0 {
		q.f.limit = 512
	}
	return q
}

// Enqueue implements Scheduler.
func (q *LockedFIFO) Enqueue(p *pkt.Packet) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	err := q.f.Enqueue(p)
	q.n.Store(int64(q.f.Len()))
	return err
}

// Dequeue implements Scheduler.
func (q *LockedFIFO) Dequeue() *pkt.Packet {
	if q.n.Load() == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	p := q.f.Dequeue()
	q.n.Store(int64(q.f.Len()))
	return p
}

// Len implements Scheduler.
func (q *LockedFIFO) Len() int { return int(q.n.Load()) }
