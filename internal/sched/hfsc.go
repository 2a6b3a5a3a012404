package sched

import (
	"fmt"
	"math"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// HFSC implements the Hierarchical Fair Service Curve scheduler [Stoica,
// Zhang, Ng, SIGCOMM'97] that the paper ports as its class-based
// scheduling plugin (§6). Its defining property — the reason the paper
// prefers it over CBQ — is the decoupling of delay and bandwidth
// allocation: a leaf class's real-time service curve guarantees both a
// rate and, through its two-piece shape, an independent delay bound,
// while link-sharing service curves distribute excess capacity over the
// class hierarchy in proportion to virtual time.
//
// The implementation follows the published algorithm (and its BSD/ALTQ
// realization) with real-time (leaf-only), link-sharing, and optional
// upper-limit service curves, runtime curve minimization at session
// activation, eligible/deadline scheduling for guaranteed service, and
// virtual-time scheduling for the excess. Time is an explicit float64 in
// seconds so simulations are deterministic.
type HFSC struct {
	root   *Class
	leaves []*Class
	count  int // queued packets

	// Tel, when non-nil, records per-instance scheduler metrics; the
	// owning plugin instance sets it at create time. The deficit
	// histogram does not apply to H-FSC (dequeues pass -1).
	Tel *telemetry.SchedMetrics
}

// Curve is a two-piece linear service curve: slope M1 (bytes/second) for
// the first D seconds after activation, slope M2 thereafter. A concave
// curve (M1 > M2) buys a burst — i.e. low delay — without long-term
// bandwidth; a linear curve has M1 == M2 (or D == 0).
type Curve struct {
	M1 float64 // bytes/second during the initial segment
	D  float64 // seconds of initial segment
	M2 float64 // bytes/second afterwards
}

// LinearCurve is the common one-slope case.
func LinearCurve(rate float64) Curve { return Curve{M1: rate, D: 0, M2: rate} }

// LeafQueue is the queue discipline inside a leaf class. FIFO is the
// paper's current implementation ("H-FSC uses FIFO queueing for all
// flows matching the same leaf node"); the HSF extension plugs a DRR in
// here so flows inside a class are served fairly (§8 future work).
type LeafQueue interface {
	Enqueue(p *pkt.Packet) error
	Dequeue() *pkt.Packet
	Head() *pkt.Packet
	Len() int
}

// Class is one node in the scheduling hierarchy.
type Class struct {
	Name   string
	parent *Class
	child  []*Class

	rsc, fsc, usc *Curve // real-time, link-share, upper-limit

	// Real-time (leaf only) state.
	deadline rtsc
	eligible rtsc
	e, d     float64 // eligible / deadline times for the head packet
	cumul    float64 // bytes served under the real-time criterion

	// Link-sharing state.
	virtual rtsc
	vt      float64
	total   float64 // bytes served in all (rt+ls)
	cvtmax  float64 // max vt seen among this class's children

	// Upper-limit state.
	ulimit rtsc
	myf    float64 // fit time: earliest time the UL curve permits service

	nactive int // number of active (backlogged) children
	active  bool

	queue LeafQueue // leaf only

	// Served counts bytes dequeued from this leaf, for experiments.
	Served uint64
	Drops  uint64
}

// NewHFSC creates a scheduler whose root link-shares the full link rate
// (bytes/second).
func NewHFSC(linkRate float64) *HFSC {
	root := &Class{Name: "root"}
	fsc := LinearCurve(linkRate)
	root.fsc = &fsc
	return &HFSC{root: root}
}

// Root returns the root class.
func (h *HFSC) Root() *Class { return h.root }

// AddClass adds a class under parent (nil = root). rt is the real-time
// curve (leaf classes only — enforced at Enqueue time by construction:
// interior classes never own queues), ls the link-sharing curve, ul an
// optional upper limit. queue is the leaf discipline (nil = FIFO 128).
func (h *HFSC) AddClass(name string, parent *Class, rt, ls, ul *Curve, queue LeafQueue) (*Class, error) {
	if parent == nil {
		parent = h.root
	}
	// A leaf acquiring its first child becomes interior and sheds its
	// queue — but never while packets are waiting in it.
	if parent.queue != nil {
		if parent.queue.Len() > 0 {
			return nil, fmt.Errorf("sched: class %q has queued packets and cannot become interior", parent.Name)
		}
		for i, l := range h.leaves {
			if l == parent {
				h.leaves = append(h.leaves[:i], h.leaves[i+1:]...)
				break
			}
		}
		parent.queue = nil
		parent.rsc = nil // real-time curves are leaf-only
	}
	if rt != nil && rt.M1 == 0 && rt.M2 == 0 {
		rt = nil
	}
	cl := &Class{Name: name, parent: parent, rsc: rt, fsc: ls, usc: ul}
	if queue == nil {
		queue = NewFIFO(1 << 16)
	}
	cl.queue = queue
	parent.child = append(parent.child, cl)
	h.leaves = append(h.leaves, cl)
	h.Tel.SetQueues(len(h.leaves))
	return cl, nil
}

// EnqueueClass admits a packet into a leaf class at the given time.
func (h *HFSC) EnqueueClass(cl *Class, p *pkt.Packet, now float64) error {
	if cl == nil || cl.queue == nil {
		return fmt.Errorf("sched: enqueue into non-leaf class")
	}
	wasEmpty := cl.queue.Len() == 0
	if err := cl.queue.Enqueue(p); err != nil {
		cl.Drops++
		return err
	}
	h.count++
	h.Tel.RecordEnqueue()
	if wasEmpty {
		if cl.rsc != nil {
			cl.initED(now, float64(len(p.Data)))
		}
		h.initVF(cl, now)
	}
	return nil
}

// DequeueAt returns the next packet under the H-FSC discipline at the
// given time, or nil if no class is eligible (the caller retries at
// NextEventTime).
func (h *HFSC) DequeueAt(now float64) *pkt.Packet {
	// 1. Real-time criterion: among eligible leaves (e <= now), the one
	// with the smallest deadline.
	var cl *Class
	realtime := false
	for _, l := range h.leaves {
		if l.rsc == nil || l.queue.Len() == 0 {
			continue
		}
		if l.e <= now && (cl == nil || l.d < cl.d) {
			cl = l
		}
	}
	if cl != nil {
		realtime = true
	} else {
		// 2. Link-sharing criterion: walk down by minimum virtual time,
		// honoring upper limits.
		cl = h.root
		for cl != nil && cl.queue == nil {
			var best *Class
			for _, c := range cl.child {
				if !c.active {
					continue
				}
				if c.usc != nil && c.myf > now {
					continue
				}
				if best == nil || c.vt < best.vt {
					best = c
				}
			}
			cl = best
		}
		if cl == nil {
			return nil
		}
	}

	p := cl.queue.Dequeue()
	if p == nil {
		return nil
	}
	h.count--
	h.Tel.RecordDequeue(-1)
	size := float64(len(p.Data))
	cl.Served += uint64(len(p.Data))

	if realtime {
		cl.cumul += size
	}
	// Update the real-time curves for the next head packet.
	if cl.queue.Len() > 0 {
		if cl.rsc != nil {
			next := float64(len(cl.queue.Head().Data))
			if realtime {
				cl.updateED(next)
			} else {
				cl.d = cl.deadline.y2x(cl.cumul + next)
			}
		}
	}
	// Update virtual times up the hierarchy; deactivate if emptied.
	h.updateVF(cl, size, now)
	return p
}

// Len implements the packet count.
func (h *HFSC) Len() int { return h.count }

// NextEventTime reports the earliest future time at which a currently
// blocked scheduler might become eligible (min over eligible times and
// fit times), or +Inf when idle. Simulators use it to advance the clock.
func (h *HFSC) NextEventTime(now float64) float64 {
	next := math.Inf(1)
	for _, l := range h.leaves {
		if l.queue.Len() == 0 {
			continue
		}
		if l.rsc != nil && l.e > now && l.e < next {
			next = l.e
		}
		if l.usc != nil && l.myf > now && l.myf < next {
			next = l.myf
		}
	}
	return next
}

// initED initializes eligible/deadline state when a leaf becomes active.
func (cl *Class) initED(now, nextLen float64) {
	cl.deadline.min(*cl.rsc, now, cl.cumul)
	cl.eligible = cl.deadline
	if cl.rsc.M1 <= cl.rsc.M2 {
		// Convex or linear: eligibility follows the long-term slope
		// immediately (no burst segment to gate).
		cl.eligible.dx, cl.eligible.dy = 0, 0
	}
	cl.e = cl.eligible.y2x(cl.cumul)
	cl.d = cl.deadline.y2x(cl.cumul + nextLen)
}

// updateED advances eligible/deadline after a real-time service.
func (cl *Class) updateED(nextLen float64) {
	cl.e = cl.eligible.y2x(cl.cumul)
	cl.d = cl.deadline.y2x(cl.cumul + nextLen)
}

// initVF activates the class (and inactive ancestors) for link sharing.
func (h *HFSC) initVF(cl *Class, now float64) {
	for c := cl; c.parent != nil; c = c.parent {
		if c.active {
			c.parent.nactive++
			// Ancestors were already active.
			break
		}
		c.active = true
		p := c.parent
		p.nactive++
		// Join at a virtual time that neither starves nor is starved:
		// midway between the active siblings' extremes, or at the
		// historical maximum when alone (so reactivating sessions don't
		// claim credit for their idle period).
		minVT, maxVT := math.Inf(1), math.Inf(-1)
		for _, s := range p.child {
			if s != c && s.active {
				if s.vt < minVT {
					minVT = s.vt
				}
				if s.vt > maxVT {
					maxVT = s.vt
				}
			}
		}
		var vt float64
		if math.IsInf(minVT, 1) {
			vt = p.cvtmax
		} else {
			vt = (minVT + maxVT) / 2
			if vt < p.cvtmax {
				// Never rejoin behind history.
				vt = max(vt, minVT)
			}
		}
		if vt > c.vt {
			c.vt = vt
		}
		if c.fsc != nil {
			c.virtual.min(*c.fsc, c.vt, c.total)
		}
		if c.usc != nil {
			c.ulimit.min(*c.usc, now, c.total)
			c.myf = c.ulimit.y2x(c.total)
		}
		if p.nactive > 1 || p.parent == nil {
			break
		}
	}
}

// updateVF propagates a service of size bytes up the hierarchy and
// deactivates emptied branches.
func (h *HFSC) updateVF(cl *Class, size, now float64) {
	goPassive := cl.queue.Len() == 0
	for c := cl; c.parent != nil; c = c.parent {
		c.total += size
		if c.fsc != nil {
			c.vt = c.virtual.y2x(c.total)
			if c.vt > c.parent.cvtmax {
				c.parent.cvtmax = c.vt
			}
		}
		if c.usc != nil {
			c.myf = c.ulimit.y2x(c.total)
		}
		if goPassive {
			c.active = false
			c.parent.nactive--
			// An ancestor stays active while it has other active
			// children.
			goPassive = c.parent.nactive == 0
		}
	}
}

// rtsc is a runtime service curve: the two-piece curve anchored at
// (x, y), rising at m1 for dx seconds (dy bytes), then at m2.
type rtsc struct {
	x, y   float64
	m1     float64
	dx, dy float64
	m2     float64
}

func (r *rtsc) set(c Curve, x, y float64) {
	r.x, r.y = x, y
	r.m1, r.m2 = c.M1, c.M2
	r.dx = c.D
	r.dy = c.M1 * c.D
}

// x2y evaluates the curve at time t.
func (r *rtsc) x2y(t float64) float64 {
	if t <= r.x {
		return r.y
	}
	if t <= r.x+r.dx {
		return r.y + r.m1*(t-r.x)
	}
	return r.y + r.dy + r.m2*(t-r.x-r.dx)
}

// y2x inverts the curve: the time at which cumulative service v is
// reached (+Inf if never).
func (r *rtsc) y2x(v float64) float64 {
	if v <= r.y {
		return r.x
	}
	if v <= r.y+r.dy {
		// First segment; m1 > 0 whenever dy > 0.
		return r.x + (v-r.y)/r.m1
	}
	if r.m2 == 0 {
		return math.Inf(1)
	}
	return r.x + r.dx + (v-r.y-r.dy)/r.m2
}

// min replaces the runtime curve by the pointwise minimum of itself and
// the service curve c re-anchored at (x, y) — the session-reactivation
// update of the H-FSC algorithm. Mirrors the BSD rtsc_min logic.
func (r *rtsc) min(c Curve, x, y float64) {
	if r.m1 == 0 && r.m2 == 0 && r.dx == 0 && r.dy == 0 && r.x == 0 && r.y == 0 {
		// Uninitialized: just anchor.
		r.set(c, x, y)
		return
	}
	if c.M1 <= c.M2 {
		// Convex or linear: the fresh anchor always lies below the old
		// curve's continuation at and after x.
		if r.x2y(x) < y {
			return // current curve is already smaller
		}
		r.set(c, x, y)
		return
	}
	// Concave curve.
	y1 := r.x2y(x)
	if y1 <= y {
		return // current curve is below the new one everywhere
	}
	y2 := r.x2y(x + c.D)
	if y2 >= y+c.M1*c.D {
		// Current curve is above the new one everywhere: replace.
		r.set(c, x, y)
		return
	}
	// The curves intersect inside the burst segment: extend the burst
	// until the old curve is overtaken.
	dx := (y1 - y) / (c.M1 - c.M2)
	if r.x+r.dx > x {
		dx += r.x + r.dx - x
	}
	r.x, r.y = x, y
	r.m1, r.m2 = c.M1, c.M2
	r.dx = dx
	r.dy = c.M1 * dx
	_ = y2
}
