package sched

import (
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// FlowQueue is the per-flow header that DRRQueue and EiffelQueue embed:
// what a per-flow plugin reads of a flow's queue, plus the queue's
// position in its scheduler's live set.
type FlowQueue struct {
	Weight float64
	// Served counts bytes dequeued for this flow; Drops counts enqueue
	// rejections (queue limit).
	Served uint64
	Drops  uint64
	idx    int // position in the live set
	// Key is the flow a per-flow plugin created the queue for (zero
	// otherwise): the queue's only name. Listings render it on demand,
	// so creating a flow's queue formats nothing.
	Key pkt.Key
}

// Flow returns the queue's header.
func (h *FlowQueue) Flow() *FlowQueue { return h }

// PerFlowQueue is a per-flow discipline's queue, *DRRQueue or
// *EiffelQueue: the header, the backlog, and detach, which discards the
// packets still queued, takes the queue off its discipline's service
// order and disowns it.
type PerFlowQueue interface {
	comparable
	Flow() *FlowQueue
	Len() int
	detach()
}

// flowSet is the live-queue set of a per-flow discipline: every queue,
// idle ones included, for listing and teardown, with the backlog and
// telemetry they share. Each queue records its index here; removal
// swaps the last queue into the freed slot.
type flowSet[Q PerFlowQueue] struct {
	quantum int // bytes per unit weight (a DRR round, an Eiffel bucket)
	limit   int // per-queue packet limit
	total   int // queued packets across all flows
	queues  []Q

	// tel, when non-nil, records per-instance scheduler metrics
	// (enqueue/dequeue counts, evicted packets, backlog, live queues); a
	// nil bundle no-ops every record call.
	tel *telemetry.SchedMetrics
}

// newFlowSet applies the defaults: quantum 0 = 1500 bytes (one
// MTU-ish packet), perQueueLimit 0 = 128 packets.
func newFlowSet[Q PerFlowQueue](quantum, perQueueLimit int) flowSet[Q] {
	if quantum <= 0 {
		quantum = 1500
	}
	if perQueueLimit <= 0 {
		perQueueLimit = 128
	}
	return flowSet[Q]{quantum: quantum, limit: perQueueLimit}
}

// add enters a new queue with the given weight (<=0 means 1).
//
//eisr:slowpath
func (s *flowSet[Q]) add(q Q, weight float64) Q {
	if weight <= 0 {
		weight = 1
	}
	h := q.Flow()
	h.Weight = weight
	h.idx = len(s.queues)
	s.queues = append(s.queues, q)
	s.tel.SetQueues(len(s.queues))
	return q
}

// SetTelemetry installs the per-instance metric bundle. The owning
// plugin instance calls it at create time, before traffic.
func (s *flowSet[Q]) SetTelemetry(m *telemetry.SchedMetrics) { s.tel = m }

// RemoveQueue drops a flow queue and any packets it still holds
// (called when the AIU evicts the flow or the instance is freed).
// Discarded packets return their receive buffers to the pool and are
// counted as sched/evicted drops, which also takes them off the backlog
// gauge, since no dequeue will count them. A queue this scheduler does
// not hold is ignored.
func (s *flowSet[Q]) RemoveQueue(q Q) {
	var none Q
	if q == none {
		return
	}
	if i := q.Flow().idx; i >= len(s.queues) || s.queues[i] != q {
		return
	}
	if n := q.Len(); n > 0 {
		s.total -= n
		s.tel.RecordPurged(n)
	}
	s.drop(q)
	s.tel.SetQueues(len(s.queues))
}

// PurgeIdle removes every empty flow queue, returning how many were
// reclaimed — the idle-flow eviction sweep a million-flow deployment
// runs from the control plane.
//
//eisr:slowpath
func (s *flowSet[Q]) PurgeIdle() int {
	n := 0
	// Backwards, so the queue each removal moves in has been visited.
	for i := len(s.queues) - 1; i >= 0; i-- {
		if q := s.queues[i]; q.Len() == 0 {
			s.drop(q)
			n++
		}
	}
	s.tel.SetQueues(len(s.queues))
	return n
}

// drop detaches q and takes it out of the set: the last queue moves
// into its slot.
func (s *flowSet[Q]) drop(q Q) {
	q.detach()
	i, last := q.Flow().idx, len(s.queues)-1
	s.queues[i] = s.queues[last]
	s.queues[i].Flow().idx = i
	var none Q
	s.queues[last] = none
	s.queues = s.queues[:last]
}

// Len implements Scheduler.
func (s *flowSet[Q]) Len() int { return s.total }

// Queues lists live queues in creation order, except that removing a
// queue moves the last-created one into its place.
func (s *flowSet[Q]) Queues() []Q {
	return append([]Q(nil), s.queues...)
}
