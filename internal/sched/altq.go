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
		a.queues[i], _ = a.drr.Queue(uint32(i), 0)
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
// packet's FIX soft state (set by a plugin layer), the packet's flow
// record when PerFlow is on (the queue in the DRR's slab at the record's
// slot, keyed by the packet's FIX generation, as a per-flow plugin keeps
// it), or a shared default queue.
type DRRLeaf struct {
	DRR *DRR
	// PerFlow gives every flow record its own queue.
	PerFlow bool

	pending *pkt.Packet // head cache, because DRR has no non-destructive peek
}

// flowSlotter is a packet FIX that names a flow slot: the AIU's flow
// record (aiu.FlowRecord.Slot).
type flowSlotter interface{ Slot() uint32 }

// NewDRRLeaf builds a DRR-backed leaf queue.
func NewDRRLeaf(quantum int) *DRRLeaf { return &DRRLeaf{DRR: NewDRR(quantum, 0)} }

// Enqueue implements LeafQueue. Slab slot 0 is the default queue's, so
// flow slot s is the DRR's slot s+1. A packet whose flow has lost its
// slot to a newer flow has no queue.
func (l *DRRLeaf) Enqueue(p *pkt.Packet) error {
	if q, ok := p.FIX.(*DRRQueue); ok && q != nil {
		return l.DRR.EnqueueFlow(q, p)
	}
	slot, gen := uint32(0), uint64(0)
	if f, ok := p.FIX.(flowSlotter); ok && l.PerFlow {
		slot, gen = f.Slot()+1, p.FIXGen
	}
	q, _ := l.DRR.Queue(slot, gen)
	if q == nil {
		return ErrNoQueue
	}
	return l.DRR.EnqueueFlow(q, p)
}

// Dequeue implements LeafQueue.
func (l *DRRLeaf) Dequeue() *pkt.Packet {
	if p := l.pending; p != nil {
		l.pending = nil
		return p
	}
	return l.DRR.Dequeue()
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
