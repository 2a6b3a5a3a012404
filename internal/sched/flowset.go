package sched

import (
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Slab holds per-flow state of type E indexed by flow slot — the flow
// table's dense record index (aiu.FlowRecord.Slot) — in pages of
// slabPage entries, each allocated when a slot in it is first used, so
// a lightly loaded table touches few pages. Each entry remembers the
// generation of the flow that owns it: a record recycled for a new flow
// bumps its generation, and the new flow's first Get resets the entry in
// place (the caller resets; Get reports it). No eviction callback is
// needed, and a reused entry allocates nothing. The zero Slab is empty
// and ready; it is not safe for concurrent use.
type Slab[E any] struct {
	pages []*[slabPage]slabEntry[E]
	owned int
}

// slabPage is the entry count of one slab page.
const (
	slabShift = 6
	slabPage  = 1 << slabShift
)

type slabEntry[E any] struct {
	owner uint64 // generation+1 of the owning flow; 0: unowned
	v     E
}

// Get returns slot's entry for the flow of generation gen. fresh
// reports that gen claimed the entry just now — it was unowned or
// belonged to an older generation, whose flow has left the table — and
// the caller must reset it. A nil entry means a newer generation owns
// the slot: gen's flow is gone, and its late packets must not touch
// the newer flow's state. Generations only grow, so that order is the
// flows' order.
//
//eisr:fastpath
func (s *Slab[E]) Get(slot uint32, gen uint64) (e *E, fresh bool) {
	pi := int(slot >> slabShift)
	if pi >= len(s.pages) || s.pages[pi] == nil {
		s.addPage(pi)
	}
	en := &s.pages[pi][slot&(slabPage-1)]
	switch g := gen + 1; {
	case g == en.owner:
		return &en.v, false
	case g > en.owner:
		if en.owner == 0 {
			s.owned++
		}
		en.owner = g
		return &en.v, true
	}
	return nil, false
}

// addPage allocates page pi, once per slabPage slots.
//
//eisr:slowpath
func (s *Slab[E]) addPage(pi int) {
	for len(s.pages) <= pi {
		s.pages = append(s.pages, nil)
	}
	s.pages[pi] = new([slabPage]slabEntry[E])
}

// Owned reports the entries a flow owns: claimed and not released.
func (s *Slab[E]) Owned() int { return s.owned }

// Each calls fn for every owned entry, in slot order, with the slot and
// its owner's generation. fn returning true releases the entry: the
// next Get of the slot claims it fresh.
func (s *Slab[E]) Each(fn func(slot uint32, gen uint64, e *E) (release bool)) {
	for pi, pg := range s.pages {
		if pg == nil {
			continue
		}
		for j := range pg {
			en := &pg[j]
			if en.owner == 0 {
				continue
			}
			if fn(uint32(pi<<slabShift|j), en.owner-1, &en.v) {
				en.owner = 0
				s.owned--
			}
		}
	}
}

// FlowQueue is the per-flow header that DRRQueue and EiffelQueue embed:
// what a per-flow plugin reads of a flow's queue.
type FlowQueue struct {
	Weight float64
	// Served counts bytes dequeued for this flow; Drops counts enqueue
	// rejections (queue limit).
	Served uint64
	Drops  uint64
}

// Flow returns the queue's header.
func (h *FlowQueue) Flow() *FlowQueue { return h }

// PerFlowQueue is a per-flow discipline's queue, *DRRQueue or
// *EiffelQueue: the header, the backlog, and detach, which discards the
// packets still queued and takes the queue off its discipline's service
// order.
type PerFlowQueue interface {
	comparable
	Flow() *FlowQueue
	Len() int
	detach()
}

// slabQueue ties a per-flow queue type to the entry type a Slab stores.
type slabQueue[E any] interface {
	*E
	PerFlowQueue
}

// flowSet is the queue store of a per-flow discipline: a Slab of queues
// indexed by flow slot, with the backlog and telemetry they share.
type flowSet[E any, Q slabQueue[E]] struct {
	quantum int // bytes per unit weight (a DRR round, an Eiffel bucket)
	limit   int // per-queue packet limit
	total   int // queued packets across all flows
	slab    Slab[E]
	// own finishes a claimed queue's reset with its discipline's own
	// fields (its parent, its limit, its service state).
	own func(Q)

	// tel, when non-nil, records per-instance scheduler metrics
	// (enqueue/dequeue counts, evicted packets, backlog, owned queues);
	// a nil bundle no-ops every record call.
	tel *telemetry.SchedMetrics
}

// newFlowSet applies the defaults: quantum 0 = 1500 bytes (one
// MTU-ish packet), perQueueLimit 0 = 128 packets.
func newFlowSet[E any, Q slabQueue[E]](quantum, perQueueLimit int, own func(Q)) flowSet[E, Q] {
	if quantum <= 0 {
		quantum = 1500
	}
	if perQueueLimit <= 0 {
		perQueueLimit = 128
	}
	return flowSet[E, Q]{quantum: quantum, limit: perQueueLimit, own: own}
}

// Queue returns the queue of flow slot for the flow of generation gen
// (see Slab.Get), and whether gen claimed it just now: then the queue
// has been reset in place at weight 1 (SetWeight changes that) — the
// packets an older flow left in it dropped (evict) and its counters
// zeroed. The queue keeps its storage (a DRR queue's FIFO array), so a
// reused slot allocates nothing. It is nil when a newer generation owns
// the slot. A caller with no flow table numbers its flows itself and
// passes generation 0.
//
//eisr:fastpath
func (s *flowSet[E, Q]) Queue(slot uint32, gen uint64) (Q, bool) {
	e, fresh := s.slab.Get(slot, gen)
	q := Q(e)
	if fresh {
		s.evict(q)
		*q.Flow() = FlowQueue{Weight: 1}
		s.own(q)
		s.tel.SetQueues(s.slab.Owned())
	}
	return q, fresh
}

// evict detaches q, counting the packets it still holds — an evicted
// flow's, or a freed instance's — as sched/evicted drops, which also
// takes them off the backlog gauge, since no dequeue will count them.
func (s *flowSet[E, Q]) evict(q Q) {
	if n := q.Len(); n > 0 {
		s.total -= n
		s.tel.RecordPurged(n)
	}
	q.detach()
}

// SetWeight sets a flow queue's weight (<=0 means 1).
func (s *flowSet[E, Q]) SetWeight(q Q, w float64) {
	if w <= 0 {
		w = 1
	}
	q.Flow().Weight = w
}

// SetTelemetry installs the per-instance metric bundle. The owning
// plugin instance calls it at create time, before traffic.
func (s *flowSet[E, Q]) SetTelemetry(m *telemetry.SchedMetrics) { s.tel = m }

// PurgeIdle releases every empty flow queue, returning how many — the
// idle-flow sweep a million-flow deployment runs from the control
// plane. A released queue gives up its storage; its flow's next packet
// claims it afresh.
//
//eisr:slowpath
func (s *flowSet[E, Q]) PurgeIdle() int { return s.purge(false) }

// Clear releases every flow queue, dropping the packets still queued
// as sched/evicted (instance teardown), and returns how many queues it
// released.
//
//eisr:slowpath
func (s *flowSet[E, Q]) Clear() int { return s.purge(true) }

func (s *flowSet[E, Q]) purge(all bool) int {
	n := 0
	s.slab.Each(func(_ uint32, _ uint64, e *E) bool {
		if q := Q(e); all || q.Len() == 0 {
			s.evict(q)
			var zero E
			*e = zero
			n++
			return true
		}
		return false
	})
	s.tel.SetQueues(s.slab.Owned())
	return n
}

// Each calls fn for every owned flow queue in slot order, with the slot
// and the generation of the flow that owns it.
func (s *flowSet[E, Q]) Each(fn func(slot uint32, gen uint64, q Q)) {
	s.slab.Each(func(slot uint32, gen uint64, e *E) bool {
		fn(slot, gen, Q(e))
		return false
	})
}

// Len implements Scheduler.
func (s *flowSet[E, Q]) Len() int { return s.total }
