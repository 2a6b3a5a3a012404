// Package sched implements the packet scheduling algorithms of §6: the
// weighted Deficit Round Robin plugin the authors wrote, the Hierarchical
// Fair Service Curve scheduler they ported from CMU, the plain FIFO of a
// best-effort kernel, an ALTQ-style monolithic DRR (the Table 3
// baseline, with its own internal hash classifier), and the Hierarchical
// Scheduling Framework of §8 (future work in the paper): H-FSC interior
// nodes with DRR fair queuing inside leaf classes.
//
// Schedulers are pure queueing disciplines: Enqueue admits a packet,
// Dequeue picks the next packet to transmit. Time-dependent disciplines
// (H-FSC) take an explicit clock so simulations and tests are
// deterministic.
package sched

import (
	"errors"

	"github.com/routerplugins/eisr/internal/pkt"
)

// ErrQueueFull is returned when an enqueue exceeds a queue limit.
var ErrQueueFull = errors.New("sched: queue full")

// Scheduler is the minimal queueing-discipline contract used by the
// scheduling gate and the link simulator.
type Scheduler interface {
	// Enqueue admits a packet (classified by the caller into whatever
	// flow/class state the discipline keeps on the packet's FIX).
	Enqueue(p *pkt.Packet) error
	// Dequeue returns the next packet to send, or nil if empty.
	Dequeue() *pkt.Packet
	// Len is the number of queued packets.
	Len() int
}

// FIFO is the single-queue discipline of a best-effort router.
type FIFO struct {
	q     []*pkt.Packet
	head  int
	limit int
}

// fifoMinCap is a FIFO's first backing array: room for a short burst,
// 32 bytes, so a flow queue that never backs up costs one small
// allocation instead of its whole limit.
const fifoMinCap = 4

// NewFIFO builds a FIFO with a packet limit (0 = 512, the customary
// ifqueue depth). Nothing is preallocated: the backing array grows
// geometrically on demand, capped at the limit, so a FIFO costs memory
// in proportion to the deepest backlog it has held.
func NewFIFO(limit int) *FIFO {
	if limit <= 0 {
		limit = 512
	}
	return &FIFO{limit: limit}
}

// Enqueue implements Scheduler.
//
//eisr:fastpath
func (f *FIFO) Enqueue(p *pkt.Packet) error {
	if f.Len() >= f.limit {
		return ErrQueueFull
	}
	if len(f.q) == cap(f.q) {
		if f.head > 0 {
			// The slice ran into its cap with dequeued slots at the
			// front: compact the live region in place (a bounded pointer
			// memmove, no allocation) and clear the vacated tail so the
			// array does not pin departed packets.
			n := copy(f.q, f.q[f.head:])
			for i := n; i < len(f.q); i++ {
				f.q[i] = nil
			}
			f.q = f.q[:n]
			f.head = 0
		} else {
			// Full with nothing dequeued in front: the backlog is at a
			// new high. Double the array, capped at the limit (the limit
			// check above guarantees room below it).
			n := min(max(2*cap(f.q), fifoMinCap), f.limit)
			//eisr:allow(fastpath) growth is geometric and capped at the limit, and happens only while the backlog reaches a new high: at most log2(limit/fifoMinCap)+1 times in a queue's life, never in steady state
			f.q = append(make([]*pkt.Packet, 0, n), f.q...)
		}
	}
	f.q = f.q[:len(f.q)+1]
	f.q[len(f.q)-1] = p
	return nil
}

// Dequeue implements Scheduler.
//
//eisr:fastpath
func (f *FIFO) Dequeue() *pkt.Packet {
	if f.head >= len(f.q) {
		return nil
	}
	p := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return p
}

// Len implements Scheduler.
func (f *FIFO) Len() int { return len(f.q) - f.head }

// Head returns the next packet without removing it.
func (f *FIFO) Head() *pkt.Packet {
	if f.head >= len(f.q) {
		return nil
	}
	return f.q[f.head]
}
