// The gate walk: the plugin-mode data path, one implementation for any
// vector size.
//
// Every packet is forwarded as one lane of a vector. Forward walks a
// vector of one whose lanes live on the caller's stack; a run-loop worker's
// Batcher walks up to its batch cap at a time. Per vector the walk loads
// the interface snapshot once and bumps each gate's counter once with
// the live-lane count. Per gate it resolves every lane's instance
// through the FIX cached in the packet (aiu.Lane.FIX), sends the lanes
// that step cannot serve through aiu.Resolve together (one shard
// read-lock per same-shard run), and dispatches once per (instance,
// contiguous run): through HandleBatch when the run holds two or more
// packets and the instance implements pcu.BatchHandler, else through
// HandlePacket. The forwarding decision (local delivery, route lookup,
// TTL) is Router.route, made once per packet.
//
// A packet has one owner (pkt.BufOwner). The walk owns its lanes'
// packets until each reaches a verdict, and it hands a forwarded one
// to an output stage — a scheduling instance that takes it, or the
// default output FIFO. Once handed over the packet belongs to that
// stage, whose drainer may transmit and recycle it at once, so the walk
// never reads or writes it again; a stage that refuses the packet gives
// it back. The stages and helpers that decide a packet's fate only
// return a pkt.DropReason. laneDone is the one place a lane ends: for a
// packet the walk still owns — dropped, delivered or refused — it
// finishes the trace and then retires the packet through release.
//
// Traced packets (trace-ring sample or in-band path context) are lanes
// like any other, with a per-lane hook: a lane-local cycles counter so
// the packet's classifier accesses can be attributed to its trace
// entry, a hop record per gate, and at the verdict the trace-ring
// commit and the path stamp. The hook reads the packet before it
// leaves the walk — right before the handoff of a forwarded packet,
// before the release of a retired one — and commits after.
package ipcore

import (
	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// DefaultBatchSize is the worker batch cap when Config.BatchSize is
// zero: large enough to amortize locks and indirect calls, small enough
// to bound the latency a queued packet waits behind its batch.
const DefaultBatchSize = 32

// laneState is the walk's own per-packet state, indexed like the lookup
// lanes.
type laneState struct {
	routed   bool  // forwarding decision made
	outIf    int32 // ... and its output interface
	degraded bool  // faulted at the current gate under the forward policy
	ran      bool  // dispatched at the current gate as part of a run
	taken    bool  // ... and the run's handler took the packet

	tr *laneTrace // trace hook state; nil unless the packet is traced
}

// laneTrace is a traced lane's hook state (traceBegin).
type laneTrace struct {
	te    *telemetry.TraceEntry // trace-ring entry; nil for path-only tracing
	start int64                 // on the pkt.Nanotime clock of Packet.Stamp
	cc    cycles.Counter        // the lane's classifier accounting

	// handed is set once the packet went to an output stage
	// (traceHandoff) with its forwarded hop stamped; from then on the
	// hook reads only what it recorded here, unless the stage refuses
	// the packet and gives it back.
	handed bool
	outIf  int32
}

// vec is one vector in flight: the lookup lanes handed to aiu.Resolve
// (a nil packet marks a lane whose packet reached its verdict) and the
// walk's state beside them. It holds no pointer but its lane arrays, so
// a vector of one can live on the caller's stack.
type vec struct {
	lanes    []aiu.Lane
	state    []laneState
	alive    int
	survived int
}

// Batcher carries one worker's preallocated vector scratch, sized to the
// cap at construction, so a steady-state ForwardBatch allocates nothing.
// A Batcher belongs to one worker goroutine; it is not safe for
// concurrent use.
type Batcher struct {
	r     *Router
	lanes []aiu.Lane
	state []laneState
	// run holds the packets of one (instance, run) for HandleBatch.
	run []*pkt.Packet
}

// NewBatcher builds vector scratch for batches of up to capacity packets
// (0 = DefaultBatchSize). Larger slices passed to ForwardBatch are
// processed in capacity-sized chunks.
func (r *Router) NewBatcher(capacity int) *Batcher {
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	return &Batcher{
		r:     r,
		lanes: make([]aiu.Lane, capacity),
		state: make([]laneState, capacity),
		run:   make([]*pkt.Packet, capacity),
	}
}

// ForwardBatch forwards every non-nil packet of ps and returns how many
// survived (forwarded or delivered — the count of true returns Forward
// would have produced). The interface-state snapshot is loaded exactly
// once per call, so the whole batch forwards against one coherent
// generation of the interface tables.
//
//eisr:fastpath
func (b *Batcher) ForwardBatch(ps []*pkt.Packet) int {
	r := b.r
	st := r.state.Load()
	total, n := 0, 0
	for _, p := range ps {
		switch {
		case p == nil:
		case r.mode == ModeBestEffort:
			// The best-effort kernel has no gates to walk.
			if ok, _ := r.forwardMono(p, st); ok {
				total++
			}
		default:
			b.lanes[n].P = p
			if n++; n == len(b.lanes) {
				total += b.forward(n, st)
				n = 0
			}
		}
	}
	if n > 0 {
		total += b.forward(n, st)
	}
	return total
}

// forward walks the first n lanes as one vector.
//
//eisr:fastpath
func (b *Batcher) forward(n int, st *ifaceState) int {
	return b.r.walk(&vec{lanes: b.lanes[:n], state: b.state[:n]}, st, b.run)
}

// walk runs the vector through the gates and returns how many of its
// packets survived. run is HandleBatch scratch with one slot per lane;
// nil (a vector of one) sends every dispatch through HandlePacket.
//
//eisr:fastpath
func (r *Router) walk(w *vec, st *ifaceState, run []*pkt.Packet) int {
	lanes := w.lanes
	state := w.state[:len(lanes)]
	w.alive, w.survived = len(lanes), 0
	traced := false
	var now int64
	for i := range lanes {
		l, s := &lanes[i], &state[i]
		p := l.P
		*s = laneState{}
		l.C = r.Counter
		// Path-trace origin sampling: Enabled is one nil check plus an
		// atomic load, the only cost the untraced path pays for eisrpath.
		// A packet that arrived with a wire context stays traced.
		if !p.Path.Active && p.KeyValid && r.ptrace.Enabled() {
			if id, ok := r.ptrace.Origin(uint32(p.Hash)); ok {
				p.Path.Active = true
				p.Path.ID = id
			}
		}
		// Acquire returns nil unless the trace ring is on and samples
		// this packet.
		if te := r.tel.Tracer().Acquire(); te != nil || p.Path.Active {
			r.traceBegin(l, s, te)
			traced = true
		}
		if why := r.validate(p); why != pkt.DropNone {
			r.laneDone(w, i, why, true)
			continue
		}
		if now == 0 {
			// One flow-touch timestamp per vector: the receive stamp.
			now = p.Stamp
			if now == 0 {
				now = pkt.Nanotime()
			}
		}
	}
	for gi, g := range r.gates {
		if w.alive == 0 {
			break
		}
		r.telGateDispatch[gi].Add(uint64(w.alive))
		var gstart int64
		if traced {
			gstart = pkt.Nanotime()
		}
		// The gate "macro" (§3.2): the instance comes from the FIX cached
		// in the packet, else from the flow table or classification.
		slot, miss := r.gateSlots[gi], false
		for i := range lanes {
			if l := &lanes[i]; l.P != nil && !l.FIX(slot) {
				miss = true
			}
		}
		if miss {
			r.aiu.Resolve(lanes, slot, now)
		}
		if g == pcu.TypeSched {
			// A gate set without an explicit routing gate still needs a
			// forwarding decision before output. A scheduling instance
			// that drains other ports does not take a packet routed to
			// this one: the lane is treated as unbound here and the
			// packet goes to its own port's FIFO.
			for i := range lanes {
				if lanes[i].P != nil && !state[i].routed {
					r.laneRoute(w, i, st)
				}
				if lanes[i].P != nil && lanes[i].Inst != nil && st.servesElsewhere(state[i].outIf, lanes[i].Inst) {
					lanes[i].Inst = nil
				}
			}
		}
		if traced && gi < 8 {
			// The in-band hop record's gate-chain summary: bit i set when
			// gate i dispatched a plugin instance for this packet.
			for i := range lanes {
				if p := lanes[i].P; p != nil && p.Path.Active && lanes[i].Inst != nil {
					p.Path.LocalGates |= 1 << uint(gi)
				}
			}
		}
		if traced && g == pcu.TypeSched {
			// A scheduling instance takes the packet, so the trace hook
			// reads it first.
			for i := range lanes {
				if lanes[i].P != nil && lanes[i].Inst != nil && state[i].tr != nil {
					r.traceHandoff(w, i)
				}
			}
		}
		// Dispatch, one guarded call per (instance, contiguous run), then
		// the gate's verdict handling, lane by lane.
		for i := range lanes {
			l, s := &lanes[i], &state[i]
			p := l.P
			if p == nil {
				continue
			}
			// A faulted-but-continuing packet is degraded: the gate is
			// treated as if no instance were bound. A taken packet
			// belongs to the instance now: the walk must not touch it.
			degraded, taken := false, false
			switch {
			case l.Inst == nil:
			case s.ran || (run != nil && r.dispatchRun(w, g, i, run)):
				if l.P == nil {
					continue // its run faulted under the drop policy
				}
				degraded, taken = s.degraded, s.taken
				s.ran, s.degraded, s.taken = false, false, false
			default:
				// At the scheduling gate the error is the whole verdict:
				// nil means the instance took the packet.
				why, faulted := r.gateDispatch(g, l.Inst, p)
				if why != pkt.DropNone {
					r.laneDone(w, i, why, true)
					continue
				}
				degraded, taken = faulted, !faulted && g == pcu.TypeSched
			}
			switch {
			case taken:
				r.stats.schedEnq.Add(1)
				r.stats.forwarded.Add(1)
			case g == pcu.TypeRouting:
				// The routing gate realizes §8's QoS routing: a bound
				// instance may have set the output interface; the
				// destination table remains the fallback.
				if !r.laneRoute(w, i, st) {
					continue
				}
			case l.Inst == nil || degraded:
				// No instance, or a faulted one treated as absent: it may
				// have panicked before doing any of its work.
			case p.Drop || g == pcu.TypeSched:
				// Marked, or handed back by a scheduler's HandleBatch.
				r.laneDone(w, i, pkt.DropPlugin, true)
				continue
			}
			if t := s.tr; t != nil && t.te != nil {
				ns := pkt.Nanotime() - gstart
				code, iname := hopIdentity(g, l.Inst)
				t.te.RecordHop(r.gateNames[gi], code, iname, ns)
				r.telGateNanos[gi].Observe(uint64(ns))
			}
			if taken {
				r.laneDone(w, i, pkt.DropNone, false)
				continue
			}
			if p.PuntLocal {
				r.deliver(p)
				r.laneDone(w, i, pkt.DropNone, true)
			}
		}
	}
	for i := range lanes {
		p := lanes[i].P
		if p == nil {
			continue
		}
		if state[i].routed || r.laneRoute(w, i, st) {
			if state[i].tr != nil {
				r.traceHandoff(w, i)
			}
			why := r.enqueueFIFO(p, st)
			r.laneDone(w, i, why, why != pkt.DropNone)
		}
	}
	return w.survived
}

// laneRoute makes lane i's forwarding decision. It returns false when
// the packet reached its verdict there (delivered locally or dropped).
//
//eisr:fastpath
func (r *Router) laneRoute(w *vec, i int, st *ifaceState) bool {
	l := &w.lanes[i]
	if done, why := r.route(l.P, st, l.C); done {
		r.laneDone(w, i, why, true)
		return false
	}
	w.state[i].routed, w.state[i].outIf = true, l.P.OutIf
	return true
}

// laneDone ends lane i with its verdict: the packet was lost for why,
// or survived (pkt.DropNone). owned tells that the walk still holds the
// packet — dropped, delivered, or refused by an output stage — rather
// than an output stage having taken it. The lane leaves the vector, a
// traced packet's trace is finished, and an owned packet is then
// retired: this is the only place the walk gives up a packet it owns.
//
//eisr:fastpath
func (r *Router) laneDone(w *vec, i int, why pkt.DropReason, owned bool) {
	l := &w.lanes[i]
	if t := w.state[i].tr; t != nil {
		r.traceDone(t, l.P, why, owned)
	}
	if owned {
		r.release(l.P, why)
	}
	l.P = nil
	w.alive--
	if why == pkt.DropNone {
		w.survived++
	}
}

// dispatchRun sends the run starting at lane i through HandleBatch
// behind the fault barrier, when lane i's instance implements
// pcu.BatchHandler and binds two or more packets in a row: the
// following live lanes bound to the same instance, where lanes that are
// done or have no instance at the gate sit inside the run without
// splitting it. The run's lanes are marked ran, and taken where the
// handler cleared the packet's slot. A contained panic counts one fault
// against the instance and the rest of the run receives the fault
// policy. It reports false, having done nothing, when lane i must go
// through HandlePacket instead.
//
//eisr:fastpath
func (r *Router) dispatchRun(w *vec, g pcu.Type, i int, run []*pkt.Packet) bool {
	inst := w.lanes[i].Inst
	bh, ok := inst.(pcu.BatchHandler)
	if !ok {
		return false
	}
	n, end := 0, i
	for ; end < len(w.lanes); end++ {
		l := &w.lanes[end]
		if l.P == nil || l.Inst == nil {
			continue
		}
		if l.Inst != inst {
			break
		}
		run[n] = l.P
		n++
	}
	if n < 2 {
		return false
	}
	flt := r.guard.DispatchBatch(g, bh, inst, run[:n])
	n = 0
	for ; i < end; i++ {
		l := &w.lanes[i]
		if l.P == nil || l.Inst == nil {
			continue
		}
		s := &w.state[i]
		s.ran = true
		// A cleared slot is the handler's receipt for the packet, even
		// from a run that went on to panic.
		s.taken = run[n] == nil
		run[n] = nil
		n++
		if flt == nil || s.taken {
			continue
		}
		if why := r.faultVerdict(l.P); why != pkt.DropNone {
			r.laneDone(w, i, why, true)
		} else {
			s.degraded = true
		}
	}
	if flt != nil {
		r.stats.faults.Add(1)
	}
	return true
}

// Preallocated verdict strings for trace commits (header-copy only).
const (
	verdictForwarded = "forwarded"
	verdictDelivered = "delivered"
	verdictDropped   = "dropped"
)

// traceBegin is the trace hook at a traced packet's entry: it starts
// the packet clock and gives the lane its own classifier accounting.
// Tracing is sampled, and this is its exception path: the hook state is
// allocated here because the route lookup's matcher interface call
// leaks the lane counter, and the untraced lanes must stay on Forward's
// stack.
//
//eisr:slowpath
func (r *Router) traceBegin(l *aiu.Lane, s *laneState, te *telemetry.TraceEntry) {
	t := &laneTrace{te: te, start: pkt.Nanotime()}
	s.tr = t
	l.C = &t.cc
}

// traceHandoff is the trace hook right before lane i's packet goes to
// an output stage: it records what the trace needs from the packet and
// stamps the in-band path context as forwarded. A packet the stage
// refuses comes back to the walk, and traceDone re-stamps that hop. A
// packet the wire driver later refuses has left the walk and keeps its
// forwarded hop.
//
//eisr:fastpath
func (r *Router) traceHandoff(w *vec, i int) {
	t := w.state[i].tr
	if t.handed {
		return // degraded past a faulted scheduler: already recorded
	}
	r.traceRecord(w.lanes[i].P, t, pkt.PathVerdictForwarded, pkt.Nanotime()-t.start)
	t.handed = true
}

// traceRecord copies the packet's trace data into the ring entry (t.te,
// may be nil — every TraceEntry method is a nil no-op) and the hook
// state, and stamps an active path context with verdict pv.
//
//eisr:fastpath
func (r *Router) traceRecord(p *pkt.Packet, t *laneTrace, pv uint8, elapsed int64) {
	t.outIf = p.OutIf
	t.te.RecordKey(p.Key, pkt.WallNanos(t.start))
	t.te.RecordClassify(!p.CacheMiss, p.CacheMiss, t.cc.Mem, t.cc.FnPtr)
	if p.Path.Active {
		r.pathStamp(p, pv, t, elapsed)
	}
}

// traceDone is the trace hook at a traced packet's verdict: it credits
// the lane-local classifier accounting to the shared counter (so
// benchmark accounting is unchanged) and commits the router-local trace
// entry with the drop reason. p is read only while the walk still owns
// it (owned): a packet it retires is recorded here, and a packet an
// output stage refused has its forwarded hop re-stamped with the
// verdict and its span folded. A handed-off packet is not touched.
//
//eisr:fastpath
func (r *Router) traceDone(t *laneTrace, p *pkt.Packet, why pkt.DropReason, owned bool) {
	elapsed := pkt.Nanotime() - t.start
	r.Counter.Merge(t.cc)
	r.telPktNanos.Observe(uint64(elapsed))
	verdict, pv := verdictForwarded, pkt.PathVerdictForwarded
	switch {
	case why != pkt.DropNone:
		verdict, pv = verdictDropped, pkt.PathVerdictDropped
	case owned:
		verdict, pv = verdictDelivered, pkt.PathVerdictDelivered
	}
	switch {
	case !owned:
	case !t.handed:
		r.traceRecord(p, t, pv, elapsed)
	case p.Path.Active:
		if h := p.Path.Last(); h != nil && h.Router == r.ptrace.Router() {
			h.Verdict = pv
		}
		r.pathFold(p, t)
	}
	t.te.Commit(verdict, why, t.outIf, elapsed)
}

// pathStamp appends this router's hop record to an active in-band trace
// context: queue residency (receive stamp to forwarding start), total
// residency so far (TransmitWire re-stamps it at wire egress so output
// queueing is included), the worker that forwarded it, and the gates
// that dispatched an instance. When this router terminates the path —
// local delivery or drop — the accumulated hops fold into the span
// ring.
//
//eisr:fastpath
func (r *Router) pathStamp(p *pkt.Packet, verdict uint8, t *laneTrace, elapsed int64) {
	var queueNs int64
	if p.Stamp != 0 {
		queueNs = t.start - p.Stamp
	}
	appended := p.Path.AppendHop(pkt.PathHop{
		Router:  r.ptrace.Router(),
		InIf:    int16(p.InIf),
		OutIf:   int16(p.OutIf),
		Worker:  uint16(pkt.SteerWorker(p.Hash, r.queues())),
		Gates:   p.Path.LocalGates,
		Verdict: verdict,
		QueueNs: pkt.ClampNs(queueNs),
		TotalNs: pkt.ClampNs(queueNs + elapsed),
	})
	p.Path.LocalGates = 0
	// A context already holding MaxPathHops hops took no hop from this
	// router, so its last hop is another router's: egress must not
	// re-stamp it.
	p.Path.StampedHere = appended
	if verdict != pkt.PathVerdictForwarded {
		r.pathFold(p, t)
	}
}

// pathFold ends the packet's path at this router: the accumulated hops
// fold into the span ring.
//
//eisr:fastpath
func (r *Router) pathFold(p *pkt.Packet, t *laneTrace) {
	r.ptrace.Fold(&p.Path, p.Key, pkt.WallNanos(t.start))
	p.Path.Active = false
}

// hopIdentity resolves the plugin code and instance name recorded in a
// trace hop. Instances that expose their plugin code (optional
// interface) report it exactly; otherwise the gate's type occupies the
// code's upper 16 bits with a zero implementation id.
//
//eisr:fastpath
func hopIdentity(g pcu.Type, inst pcu.Instance) (uint32, string) {
	code := uint32(g) << 16
	if inst == nil {
		return code, ""
	}
	if c, ok := inst.(interface{ PluginCode() pcu.Code }); ok {
		code = uint32(c.PluginCode())
	}
	return code, inst.InstanceName()
}
