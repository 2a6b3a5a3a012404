// The gate walk: the plugin-mode data path, one implementation for any
// vector size.
//
// Every packet is forwarded as one lane of a vector. Forward walks a
// vector of one whose lanes live on the caller's stack; a pool worker's
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
// packets until each reaches a verdict: it retires a dropped or
// delivered packet itself, and it hands a forwarded one to an output
// stage — a scheduling instance that takes it, or the default output
// FIFO. Once handed over the packet belongs to that stage, whose
// drainer may transmit and recycle it at once, so the walk never reads
// or writes it again.
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
	"errors"
	"time"

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
	start time.Time
	cc    cycles.Counter // the lane's classifier accounting

	// owner is the packet's pool, held back from the packet while the
	// walk owns it so that a drop or delivery cannot recycle the packet
	// before traceDone has read it; traceDone releases it.
	owner pkt.BufOwner
	// handed is set once the packet went to an output stage
	// (traceHandoff); from then on the hook reads only what it
	// recorded here.
	handed bool
	outIf  int32
	reason string
}

// errNotQueued is the drop reason for a packet a scheduling instance's
// HandleBatch returned without taking it or marking it dropped.
var errNotQueued = errors.New("ipcore: scheduler did not queue the packet")

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
	var now time.Time
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
		if !r.validate(p) {
			r.laneDone(w, i, false)
			continue
		}
		if now.IsZero() {
			// One flow-touch timestamp per vector.
			now = p.Stamp
			if now.IsZero() {
				now = r.clock()
			}
		}
	}
	for gi, g := range r.gates {
		if w.alive == 0 {
			break
		}
		r.telGateDispatch[gi].Add(uint64(w.alive))
		var gstart time.Time
		if traced {
			gstart = r.clock()
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
		if traced && gi < 8 {
			// The in-band hop record's gate-chain summary: bit i set when
			// gate i dispatched a plugin instance for this packet.
			for i := range lanes {
				if p := lanes[i].P; p != nil && p.Path.Active && lanes[i].Inst != nil {
					p.Path.LocalGates |= 1 << uint(gi)
				}
			}
		}
		if g == pcu.TypeSched {
			// A gate set without an explicit routing gate still needs a
			// forwarding decision before output. A scheduling instance
			// takes the packet, so the trace hook reads it first.
			for i := range lanes {
				if lanes[i].P != nil && !state[i].routed {
					r.laneRoute(w, i, st)
				}
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
				err, cont, faulted := r.gateDispatch(g, l.Inst, p)
				if err != nil {
					r.laneDrop(w, i, err)
					continue
				}
				if !cont {
					r.laneDone(w, i, false)
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
				r.laneDrop(w, i, errNotQueued)
				continue
			}
			if t := s.tr; t != nil && t.te != nil {
				ns := r.clock().Sub(gstart).Nanoseconds()
				code, iname := hopIdentity(g, l.Inst)
				t.te.RecordHop(r.gateNames[gi], code, iname, ns)
				r.telGateNanos[gi].Observe(uint64(ns))
			}
			if taken {
				r.laneDone(w, i, true)
				continue
			}
			if p.PuntLocal {
				r.deliver(p)
				r.laneDone(w, i, true)
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
			r.laneDone(w, i, r.enqueueFIFO(p, st))
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
	if cont, ok := r.route(l.P, st, l.C); !cont {
		r.laneDone(w, i, ok)
		return false
	}
	w.state[i].routed, w.state[i].outIf = true, l.P.OutIf
	return true
}

// laneDone records lane i's verdict: the lane leaves the vector, and a
// traced packet's trace is finished.
//
//eisr:fastpath
func (r *Router) laneDone(w *vec, i int, ok bool) {
	if w.state[i].tr != nil {
		r.traceDone(w, i, ok)
	}
	w.lanes[i].P = nil
	w.alive--
	if ok {
		w.survived++
	}
}

// laneDrop drops lane i's packet on a plugin's verdict: a HandlePacket
// error, or a packet a HandleBatch marked or handed back. err is the
// reason unless the plugin marked one. A traced lane keeps the reason:
// its trace must not read a handed-off packet once it is released.
//
//eisr:fastpath
func (r *Router) laneDrop(w *vec, i int, err error) {
	p := w.lanes[i].P
	if !p.Drop {
		p.MarkDrop(err.Error())
	}
	if t := w.state[i].tr; t != nil {
		t.reason = p.DropMsg
	}
	r.stats.drops[dropPlugin].Add(1)
	p.ReleaseBuf()
	r.laneDone(w, i, false)
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
		if r.faultVerdict(l.P, flt) {
			w.state[i].degraded = true
		} else {
			r.laneDone(w, i, false)
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
// the packet clock, gives the lane its own classifier accounting and
// holds back the packet's pool owner (see laneTrace.owner). Tracing is
// sampled, and this is its exception path: the hook state is allocated
// here because the route lookup's matcher interface call leaks the
// lane counter, and the untraced lanes must stay on Forward's stack.
//
//eisr:slowpath
func (r *Router) traceBegin(l *aiu.Lane, s *laneState, te *telemetry.TraceEntry) {
	t := &laneTrace{te: te, start: r.clock()}
	t.owner, l.P.Owner = l.P.Owner, nil
	s.tr = t
	l.C = &t.cc
}

// traceHandoff is the trace hook right before lane i's packet goes to
// an output stage: it records what the trace needs from the packet,
// stamps the in-band path context as forwarded, and gives the packet
// back its pool owner so the stage can release it. A packet the stage
// then rejects keeps its forwarded hop, as one the wire driver drops at
// its TX ring does; its trace-ring entry reports the drop.
//
//eisr:fastpath
func (r *Router) traceHandoff(w *vec, i int) {
	t := w.state[i].tr
	if t.handed {
		return // degraded past a faulted scheduler: already recorded
	}
	p := w.lanes[i].P
	r.traceRecord(p, t, pkt.PathVerdictForwarded, r.clock().Sub(t.start).Nanoseconds())
	p.Owner, t.owner = t.owner, nil
	t.handed = true
}

// traceRecord copies the packet's trace data into the ring entry (t.te,
// may be nil — every TraceEntry method is a nil no-op) and the hook
// state, and stamps an active path context with verdict pv.
//
//eisr:fastpath
func (r *Router) traceRecord(p *pkt.Packet, t *laneTrace, pv uint8, elapsed int64) {
	t.outIf = p.OutIf
	t.te.RecordKey(p.Key, t.start.UnixNano())
	t.te.RecordClassify(!p.CacheMiss, p.CacheMiss, t.cc.Mem, t.cc.FnPtr)
	if p.Path.Active {
		r.pathStamp(p, pv, t.start, elapsed)
	}
}

// traceDone is the trace hook at a traced packet's verdict: it credits
// the lane-local classifier accounting to the shared counter (so
// benchmark accounting is unchanged) and commits the router-local trace
// entry. A packet the walk retired itself (dropped or delivered) is
// still the walk's: the hook records it, then releases it. A handed-off
// packet is not touched.
//
//eisr:fastpath
func (r *Router) traceDone(w *vec, i int, ok bool) {
	t := w.state[i].tr
	elapsed := r.clock().Sub(t.start).Nanoseconds()
	r.Counter.Merge(t.cc)
	r.telPktNanos.Observe(uint64(elapsed))
	if !t.handed {
		p := w.lanes[i].P
		pv := pkt.PathVerdictForwarded
		switch {
		case !ok:
			pv, t.reason = pkt.PathVerdictDropped, p.DropMsg
		case p.OutIf < 0:
			pv = pkt.PathVerdictDelivered
		}
		r.traceRecord(p, t, pv, elapsed)
		p.Owner = t.owner
		p.ReleaseBuf()
	}
	verdict, reason := verdictForwarded, ""
	switch {
	case !ok:
		verdict, reason = verdictDropped, t.reason
	case t.outIf < 0:
		verdict = verdictDelivered
	}
	t.te.Commit(verdict, reason, t.outIf, elapsed)
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
func (r *Router) pathStamp(p *pkt.Packet, verdict uint8, start time.Time, elapsed int64) {
	var queueNs int64
	if !p.Stamp.IsZero() {
		queueNs = start.Sub(p.Stamp).Nanoseconds()
	}
	var worker uint16
	if r.pool != nil {
		worker = uint16(aiu.SteerWorker(p.Hash, r.pool.n))
	}
	p.Path.AppendHop(pkt.PathHop{
		Router:  r.ptrace.Router(),
		InIf:    int16(p.InIf),
		OutIf:   int16(p.OutIf),
		Worker:  worker,
		Gates:   p.Path.LocalGates,
		Verdict: verdict,
		QueueNs: pkt.ClampNs(queueNs),
		TotalNs: pkt.ClampNs(queueNs + elapsed),
	})
	p.Path.LocalGates = 0
	p.Path.StampedHere = true
	if verdict != pkt.PathVerdictForwarded {
		r.ptrace.Fold(&p.Path, p.Key, start.UnixNano())
		p.Path.Active = false
	}
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
