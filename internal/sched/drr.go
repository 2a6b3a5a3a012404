package sched

import (
	"errors"

	"github.com/routerplugins/eisr/internal/pkt"
)

// Preallocated enqueue errors: the enqueue path runs per packet and must
// not allocate error values.
var (
	ErrForeignQueue = errors.New("sched: queue does not belong to this scheduler")
	ErrNoQueue      = errors.New("sched: packet has no flow queue")
)

// DRR is the weighted Deficit Round Robin scheduler of §6.1 [Shreedhar &
// Varghese, SIGCOMM'95]: per-flow queues served round-robin, each flow
// accumulating a deficit of weight×quantum bytes per round. Because the
// EISR architecture already classifies packets into flows, the scheduler
// itself stays tiny (the paper's plugin is under 600 lines of C): callers
// address a flow's *DRRQueue by its flow slot — the paper's per-flow
// soft-state slot, kept here in a slab the scheduler owns — and enqueue
// against it.
//
// Weights: best-effort flows share a fixed default weight; reserved
// flows get weights proportional to their reservation (recomputed by the
// plugin when reservations change, as in the paper).
type DRR struct {
	flowSet[DRRQueue, *DRRQueue]

	// Active list: circular doubly linked list of backlogged queues.
	active *DRRQueue
}

// DRRQueue is one flow's queue: the per-flow soft state of the DRR
// plugin, one slab entry per flow slot. Its packets sit in a FIFO array,
// not in an intrusive chain like Eiffel's: with the chain, an
// enqueue+dequeue pair at 10k flows measured 52–56 ns instead of
// 30–33 ns (eisrbench -exp sched-scale, 2-core VM).
type DRRQueue struct {
	fifo    FIFO
	deficit int

	next, prev *DRRQueue // active-list links; nil when idle
	onList     bool
	fresh      bool // next visit starts a new round (grants quantum)
	parent     *DRR

	// The header goes last: the fields a dequeue touches stay together.
	FlowQueue
}

// NewDRR builds a DRR scheduler. quantum is the byte allowance per unit
// weight per round (0 = 1500, one MTU-ish packet); perQueueLimit bounds
// each flow queue (0 = 128 packets). A flow queue's FIFO starts empty
// and grows on demand up to that limit (see FIFO), so a flow that never
// backs up costs a few dozen bytes of queue, not the whole limit.
func NewDRR(quantum, perQueueLimit int) *DRR {
	d := &DRR{}
	d.flowSet = newFlowSet(quantum, perQueueLimit, func(q *DRRQueue) {
		q.parent, q.fifo.limit, q.deficit = d, d.limit, 0
	})
	return d
}

// Len reports the packets queued.
func (q *DRRQueue) Len() int { return q.fifo.Len() }

// detach implements PerFlowQueue.
func (q *DRRQueue) detach() {
	for p := q.fifo.Dequeue(); p != nil; p = q.fifo.Dequeue() {
		p.ReleaseBuf()
	}
	if q.onList {
		q.parent.unlink(q)
	}
}

// EnqueueFlow admits a packet to a specific flow queue.
//
//eisr:fastpath
func (d *DRR) EnqueueFlow(q *DRRQueue, p *pkt.Packet) error {
	if q == nil || q.parent != d {
		return ErrForeignQueue
	}
	if err := q.fifo.Enqueue(p); err != nil {
		q.Drops++
		return err
	}
	d.total++
	d.tel.RecordEnqueue()
	if !q.onList {
		d.link(q)
		q.deficit = 0
		q.fresh = true
	}
	return nil
}

// Enqueue implements Scheduler by taking the flow queue (from Queue) in
// the packet's FIX; it exists so a bare DRR can sit behind the generic
// link simulator. Packets without an associated queue are
// rejected. The plugin layer normally calls EnqueueFlow directly.
//
//eisr:fastpath
func (d *DRR) Enqueue(p *pkt.Packet) error {
	q, _ := p.FIX.(*DRRQueue)
	if q == nil {
		return ErrNoQueue
	}
	return d.EnqueueFlow(q, p)
}

// Dequeue implements Scheduler: serve the active list round-robin. On
// each new visit a queue's deficit grows by weight×quantum; packets are
// served while the deficit covers them; a backlogged queue keeps its
// remainder for the next round, an emptied queue forfeits it (the
// Shreedhar & Varghese rules).
//
//eisr:fastpath
func (d *DRR) Dequeue() *pkt.Packet {
	for d.active != nil {
		q := d.active
		if q.fresh {
			grant := int(float64(d.quantum) * q.Weight)
			if grant < 1 {
				// A weight below 1/quantum truncates to a zero grant, and
				// a backlogged queue whose deficit never grows spins this
				// loop forever. Every visit must make at least one byte
				// of progress.
				grant = 1
			}
			q.deficit += grant
			q.fresh = false
		}
		if head := q.fifo.Head(); head != nil && len(head.Data) <= q.deficit {
			p := q.fifo.Dequeue()
			q.deficit -= len(p.Data)
			q.Served += uint64(len(p.Data))
			d.total--
			// Observe the remaining deficit before the emptied-queue
			// reset below zeroes it: the histogram samples the fairness
			// state at serving time, not a post-reset constant.
			d.tel.RecordDequeue(q.deficit)
			if q.fifo.Len() == 0 {
				q.deficit = 0
				d.unlink(q)
			}
			return p
		}
		// Deficit exhausted for this visit: rotate to the next queue.
		q.fresh = true
		d.active = q.next
	}
	return nil
}

func (d *DRR) link(q *DRRQueue) {
	if d.active == nil {
		q.next, q.prev = q, q
		d.active = q
	} else {
		// Insert at the tail (just before active).
		tail := d.active.prev
		tail.next = q
		q.prev = tail
		q.next = d.active
		d.active.prev = q
	}
	q.onList = true
}

func (d *DRR) unlink(q *DRRQueue) {
	if q.next == q {
		d.active = nil
	} else {
		q.prev.next = q.next
		q.next.prev = q.prev
		if d.active == q {
			d.active = q.next
		}
	}
	q.next, q.prev = nil, nil
	q.onList = false
}
