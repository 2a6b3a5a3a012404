package sched

import (
	"math/bits"

	"github.com/routerplugins/eisr/internal/pkt"
)

// Eiffel is the million-flow scheduler: a circular, find-first-set
// indexed bucket array of flow queues in the style of "Eiffel:
// Efficient and Flexible Software Packet Scheduling" (NSDI'19). Where
// DRR walks a linked list of backlogged flows and H-FSC pays O(log n)
// heap operations, Eiffel ranks every backlogged flow by a virtual
// finish time measured in quanta, buckets flows by integer rank on a
// circular wheel, and finds the next flow to serve with two
// TrailingZeros64 instructions over a hierarchical occupancy bitmap:
//
//	l1   1 bit per l0 word   — "any bucket in this word occupied?"
//	l0   1 bit per bucket    — "any flow queued at this rank?"
//
// Both enqueue and dequeue are O(1): enqueue appends to an intrusive
// per-flow packet list (pkt.Packet.QNext, no allocation) and sets at
// most two bits; dequeue FFS-scans from the current bucket (the wheel
// rotation is amortized O(1) — the scan is two masked TrailingZeros64
// calls regardless of how far the wheel advances), serves one packet,
// and reinserts the flow at its new rank. Per-flow state is one
// fixed-size EiffelQueue with no packet array at all, where a DRR flow
// also carries a FIFO array that grows with its deepest backlog.
//
// Fairness: a flow's virtual finish time advances by
// bytes/(weight×quantum) buckets per packet served, so backlogged
// flows receive service proportional to weight with per-bucket
// (one-quantum) granularity — the same bound DRR gives per round.
// Ranks beyond the wheel horizon (eiffelBuckets quanta ahead) clamp to
// the last bucket: a flow whose weight is so small that one packet
// exceeds the horizon is served at least once per wheel rotation
// instead of starving, trading exact proportionality beyond the
// horizon for a guaranteed O(1) wheel and freedom from the fractional
// weight livelock DRR's integer grant suffered.
type Eiffel struct {
	flowSet[EiffelQueue, *EiffelQueue] // quantum is the bucket width per unit weight

	buckets [eiffelBuckets]eiffelBucket
	l0      [eiffelWords]uint64
	l1      uint64

	cur  int    // wheel index of the bucket currently being served
	curV uint64 // virtual rank (quantum count) of buckets[cur]
}

// Wheel geometry: 4096 buckets (quanta of horizon) summarized by one
// uint64, so the two-level bitmap covers the whole wheel with a single
// top word. Both levels stay in a handful of cache lines.
const (
	eiffelBuckets = 4096
	eiffelWords   = eiffelBuckets / 64
	eiffelMask    = eiffelBuckets - 1
)

// eiffelBucket heads one rank's flow list (singly linked through
// EiffelQueue.next; pop at head, append at tail — flows sharing a rank
// round-robin).
type eiffelBucket struct {
	head, tail *EiffelQueue
}

// EiffelQueue is one flow's queue: the per-flow soft state of the
// Eiffel plugin, one slab entry per flow slot, exactly as DRRQueue is
// for DRR.
// Packets chain through pkt.Packet.QNext, so the queue itself is a
// fixed-size header regardless of backlog.
type EiffelQueue struct {
	vfin float64 // virtual finish rank, in quantum units

	head, tail *pkt.Packet // intrusive packet list (QNext)
	n          int

	next     *EiffelQueue // bucket list link; nil when idle
	bucket   int32        // wheel index while inBucket
	inBucket bool
	parent   *Eiffel

	// The header goes last: the fields a dequeue touches stay together.
	FlowQueue
}

// NewEiffel builds an Eiffel scheduler. quantum is the byte width of
// one wheel bucket per unit weight (0 = 1500, one MTU-ish packet);
// perQueueLimit bounds each flow queue (0 = 128 packets).
func NewEiffel(quantum, perQueueLimit int) *Eiffel {
	e := &Eiffel{}
	e.flowSet = newFlowSet(quantum, perQueueLimit, func(q *EiffelQueue) {
		q.parent, q.vfin = e, 0
	})
	return e
}

// Len reports the packets queued.
func (q *EiffelQueue) Len() int { return q.n }

// detach implements PerFlowQueue.
func (q *EiffelQueue) detach() {
	for p := q.head; p != nil; {
		next := p.QNext
		p.QNext = nil
		p.ReleaseBuf()
		p = next
	}
	q.head, q.tail, q.n = nil, nil, 0
	if q.inBucket {
		q.parent.unlink(q)
	}
}

// EnqueueFlow admits a packet to a specific flow queue. An idle flow
// re-activates at the current virtual time (it keeps unused credit
// from a prior backlog only up to "now": sleeping earns nothing).
//
//eisr:fastpath
func (e *Eiffel) EnqueueFlow(q *EiffelQueue, p *pkt.Packet) error {
	if q == nil || q.parent != e {
		return ErrForeignQueue
	}
	if q.n >= e.limit {
		q.Drops++
		return ErrQueueFull
	}
	p.QNext = nil
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.QNext = p
	}
	q.tail = p
	q.n++
	e.total++
	e.tel.RecordEnqueue()
	if !q.inBucket {
		if q.vfin < float64(e.curV) {
			q.vfin = float64(e.curV)
		}
		e.insert(q)
	}
	return nil
}

// Enqueue implements Scheduler by taking the flow queue (from Queue) in
// the packet's FIX, so a bare Eiffel can sit behind the generic
// link simulator. The plugin layer normally calls EnqueueFlow.
//
//eisr:fastpath
func (e *Eiffel) Enqueue(p *pkt.Packet) error {
	q, _ := p.FIX.(*EiffelQueue)
	if q == nil {
		return ErrNoQueue
	}
	return e.EnqueueFlow(q, p)
}

// Dequeue implements Scheduler: FFS-scan the wheel from the current
// bucket for the lowest-ranked backlogged flow, serve one packet, and
// reinsert the flow at its advanced rank. The virtual clock jumps
// straight to the served bucket, so idle ranks cost nothing.
//
//eisr:fastpath
func (e *Eiffel) Dequeue() *pkt.Packet {
	if e.total == 0 {
		return nil
	}
	b := e.firstOccupied()
	e.curV += uint64((b - e.cur) & eiffelMask)
	e.cur = b

	// Pop the head flow of the served bucket.
	bk := &e.buckets[b]
	q := bk.head
	bk.head = q.next
	if bk.head == nil {
		bk.tail = nil
		e.clearBit(b)
	}
	q.next = nil
	q.inBucket = false

	// Pop one packet and advance the flow's virtual finish rank.
	p := q.head
	q.head = p.QNext
	if q.head == nil {
		q.tail = nil
	}
	p.QNext = nil
	q.n--
	e.total--
	q.Served += uint64(len(p.Data))
	q.vfin += float64(len(p.Data)) / (q.Weight * float64(e.quantum))
	if q.n > 0 {
		e.insert(q)
	}
	e.tel.RecordDequeue(-1)
	return p
}

// insert places a backlogged flow on the wheel at its virtual finish
// rank, clamping ranks beyond the horizon to the last bucket (and
// pinning vfin there, so a starvation-prone flow re-earns service at
// the wheel rate instead of drifting unboundedly far into the future).
//
//eisr:fastpath
func (e *Eiffel) insert(q *EiffelQueue) {
	var d uint64
	if v := uint64(q.vfin); v > e.curV {
		d = v - e.curV
	}
	if d >= eiffelBuckets {
		d = eiffelBuckets - 1
		q.vfin = float64(e.curV + d)
		e.tel.RecordHorizonClamp()
	}
	b := (e.cur + int(d)) & eiffelMask
	bk := &e.buckets[b]
	q.next = nil
	if bk.tail == nil {
		bk.head = q
		e.setBit(b)
	} else {
		bk.tail.next = q
	}
	bk.tail = q
	q.inBucket = true
	q.bucket = int32(b)
}

// unlink removes a flow from its bucket's list (control path: flow
// eviction only — the list walk is bounded by the bucket's occupancy).
//
//eisr:slowpath
func (e *Eiffel) unlink(q *EiffelQueue) {
	bk := &e.buckets[q.bucket]
	var prev *EiffelQueue
	for cur := bk.head; cur != nil; prev, cur = cur, cur.next {
		if cur != q {
			continue
		}
		if prev == nil {
			bk.head = cur.next
		} else {
			prev.next = cur.next
		}
		if bk.tail == cur {
			bk.tail = prev
		}
		break
	}
	if bk.head == nil {
		e.clearBit(int(q.bucket))
	}
	q.next = nil
	q.inBucket = false
}

// firstOccupied returns the first occupied bucket at or after the
// current wheel position, wrapping circularly. Callers guarantee at
// least one bucket is occupied (total > 0). Three masked FFS probes
// cover the whole wheel: the current word's tail, the l1 summary above
// it, and the wrapped prefix.
//
//eisr:fastpath
func (e *Eiffel) firstOccupied() int {
	wi := e.cur >> 6
	bi := uint(e.cur & 63)
	// Tail of the current word: buckets [cur, end of word].
	if m := e.l0[wi] >> bi << bi; m != 0 {
		return wi<<6 | bits.TrailingZeros64(m)
	}
	// Words strictly after the current one (shift count 64 when wi is
	// the last word is defined in Go and yields 0).
	if hi := e.l1 >> uint(wi+1) << uint(wi+1); hi != 0 {
		w := bits.TrailingZeros64(hi)
		return w<<6 | bits.TrailingZeros64(e.l0[w])
	}
	// Wrap: words before the current one, then the current word's head.
	if lo := e.l1 & (1<<uint(wi) - 1); lo != 0 {
		w := bits.TrailingZeros64(lo)
		return w<<6 | bits.TrailingZeros64(e.l0[w])
	}
	return wi<<6 | bits.TrailingZeros64(e.l0[wi]&(1<<bi-1))
}

//eisr:fastpath
func (e *Eiffel) setBit(b int) {
	w := b >> 6
	e.l0[w] |= 1 << uint(b&63)
	e.l1 |= 1 << uint(w)
}

//eisr:fastpath
func (e *Eiffel) clearBit(b int) {
	w := b >> 6
	e.l0[w] &^= 1 << uint(b&63)
	if e.l0[w] == 0 {
		e.l1 &^= 1 << uint(w)
	}
}
