package sched

import (
	"github.com/routerplugins/eisr/internal/pkt"
)

// ALTQDRR reproduces the Table 3 baseline: the WFQ/DRR module of the
// ALTQ distribution, which is a *monolithic* fair queuer with its own
// basic packet classifier — a hash over the packet header fields mapping
// flows onto a fixed number of queues (§6.1: "The ALTQ WFQ modules
// implement fair queueing for a limited number of flows, which it
// distributes over a fixed number of queues. ALTQ came with a basic
// packet classifier which mapped flows to these queues by hashing on
// fields in the packet header.").
//
// Unlike the plugin DRR, it re-hashes the header on every enqueue (no
// flow-table soft state) and distinct flows can collide onto one queue.
type ALTQDRR struct {
	drr    *DRR
	queues []*DRRQueue
}

// NewALTQDRR builds the monolithic DRR with nQueues fixed queues
// (0 = 256, the ALTQ default scale).
func NewALTQDRR(nQueues, quantum int) *ALTQDRR {
	if nQueues <= 0 {
		nQueues = 256
	}
	a := &ALTQDRR{drr: NewDRR(quantum, 0)}
	a.queues = make([]*DRRQueue, nQueues)
	for i := range a.queues {
		a.queues[i] = a.drr.NewQueue(1)
	}
	return a
}

// Enqueue implements Scheduler: hash the five-tuple, pick the queue.
func (a *ALTQDRR) Enqueue(p *pkt.Packet) error {
	if !p.KeyValid {
		k, err := pkt.ExtractKey(p.Data, p.InIf)
		if err != nil {
			return err
		}
		p.SetKey(k)
	}
	q := a.queues[p.Hash%uint64(len(a.queues))]
	return a.drr.EnqueueFlow(q, p)
}

// Dequeue implements Scheduler.
func (a *ALTQDRR) Dequeue() *pkt.Packet { return a.drr.Dequeue() }

// Len implements Scheduler.
func (a *ALTQDRR) Len() int { return a.drr.Len() }

// DRRLeaf adapts a DRR to the H-FSC LeafQueue interface, realizing the
// Hierarchical Scheduling Framework of §8: "DRR could be used to do fair
// queuing for all flows ending in the same H-FSC leaf node". Flows are
// identified three ways, in priority order: an explicit *DRRQueue in the
// packet's FIX soft state (set by a plugin layer), the packet's parsed
// six-tuple when PerFlow is on (one queue per flow, created on demand
// and reclaimed when it drains), or a shared default queue.
type DRRLeaf struct {
	DRR *DRR
	// PerFlow gives every six-tuple its own queue.
	PerFlow bool

	defq    *DRRQueue
	flows   map[pkt.Key]*DRRQueue
	pending *pkt.Packet // head cache, because DRR has no non-destructive peek
}

// NewDRRLeaf builds a DRR-backed leaf queue.
func NewDRRLeaf(quantum int) *DRRLeaf {
	d := NewDRR(quantum, 0)
	return &DRRLeaf{DRR: d, defq: d.NewQueue(1), flows: make(map[pkt.Key]*DRRQueue)}
}

// Enqueue implements LeafQueue.
func (l *DRRLeaf) Enqueue(p *pkt.Packet) error {
	if q, ok := p.FIX.(*DRRQueue); ok && q != nil {
		return l.DRR.EnqueueFlow(q, p)
	}
	if l.PerFlow && p.KeyValid {
		q := l.flows[p.Key]
		if q == nil {
			q = l.DRR.NewQueue(1)
			q.Key = p.Key
			l.flows[p.Key] = q
		}
		return l.DRR.EnqueueFlow(q, p)
	}
	return l.DRR.EnqueueFlow(l.defq, p)
}

// Dequeue implements LeafQueue.
func (l *DRRLeaf) Dequeue() *pkt.Packet {
	if p := l.pending; p != nil {
		l.pending = nil
		return p
	}
	p := l.DRR.Dequeue()
	// Bound the per-flow queue map: reclaim drained queues once the map
	// grows large (idle queues hold no packets, only bookkeeping).
	if l.PerFlow && len(l.flows) > 1024 {
		for k, q := range l.flows {
			if !q.onList {
				l.DRR.RemoveQueue(q)
				delete(l.flows, k)
			}
		}
	}
	return p
}

// Head implements LeafQueue: DRR decides the next packet only when
// dequeuing, so peeking materializes it.
func (l *DRRLeaf) Head() *pkt.Packet {
	if l.pending == nil {
		l.pending = l.DRR.Dequeue()
	}
	return l.pending
}

// Len implements LeafQueue.
func (l *DRRLeaf) Len() int {
	n := l.DRR.Len()
	if l.pending != nil {
		n++
	}
	return n
}
