// Package ipcore is the stable core of the EISR (§3): the streamlined
// IPv4/IPv6 forwarding path that interacts with the (simulated) network
// devices and demultiplexes packets to plugin instances at gates. The
// core is deliberately small; everything "fluid" — option processing,
// security, scheduling, classification match functions — lives in
// plugins reached through gates.
//
// The same type also implements the *monolithic best-effort* kernel used
// as the Table 3 baseline: in ModeBestEffort no gates exist, forwarding
// is hard-wired (checksum, route lookup, TTL, FIFO output), and an
// optional hard-wired ALTQ-style scheduler reproduces the "NetBSD with
// ALTQ and DRR" row.
package ipcore

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/sched"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// limitedBroadcast is 255.255.255.255.
var limitedBroadcast = pkt.AddrV4(0xffffffff)

// Mode selects the kernel flavor.
type Mode int

const (
	// ModeBestEffort is the unmodified monolithic kernel: no gates, no
	// classifier, direct function calls end to end.
	ModeBestEffort Mode = iota
	// ModePlugin is the EISR architecture: gates consult the AIU and
	// dispatch to plugin instances.
	ModePlugin
)

// DefaultGates is the paper's gate set: IPv6/IPv4 option processing, IP
// security, packet scheduling, and the classifier's best-matching-prefix
// gate (represented by the routing gate, which performs per-flow route
// selection when bound).
var DefaultGates = []pcu.Type{pcu.TypeOptions, pcu.TypeSecurity, pcu.TypeRouting, pcu.TypeSched}

// Drainer is implemented by scheduling instances that own an output
// queue: the core pulls packets from it when the link can transmit.
type Drainer interface {
	Drain() *pkt.Packet
	Backlog() int
}

// Stats counts core events.
type Stats struct {
	Forwarded    uint64
	Delivered    uint64 // locally destined
	Dropped      uint64
	TTLExpired   uint64
	BadChecksum  uint64
	NoRoute      uint64
	PluginDrops  uint64
	PluginFaults uint64 // plugin panics contained by the fault barrier
	Degraded     uint64 // packets forwarded past a faulted gate (PolicyForward)
	SchedEnq     uint64
	ICMPSent     uint64
	Fragmented   uint64
}

// coreStats is the lock-free live counter set, the only record of these
// events: Stats() snapshots it and the metrics registry reads it.
// Per-packet counter updates must not take a mutex — the 8%-overhead
// result depends on the data path being lean. The cells are sharded
// telemetry counters rather than single atomics: with several workers
// forwarding concurrently, a single cell per verdict would put one
// contended cache line on every worker's hit path.
type coreStats struct {
	forwarded  telemetry.Counter
	delivered  telemetry.Counter
	faults     telemetry.Counter
	degraded   telemetry.Counter
	schedEnq   telemetry.Counter
	icmpSent   telemetry.Counter
	fragmented telemetry.Counter
	// drops holds one cell per drop reason; only coreReasons are counted.
	drops [pkt.NumDropReasons]telemetry.Counter
}

// coreReasons are the reasons the core loses a packet.
var coreReasons = []pkt.DropReason{
	pkt.DropBadChecksum, pkt.DropMalformed, pkt.DropTTL,
	pkt.DropNoRoute, pkt.DropNoOutput, pkt.DropPlugin, pkt.DropPluginFault,
	pkt.DropQueueFull, pkt.DropMTU,
}

// ifaceState is one immutable generation of the router's interface
// table: one port per attached interface, the registered drainers and
// the local-address set. Mutators copy, modify, and republish; the data
// path reads it with a single atomic load.
type ifaceState struct {
	ports map[int32]*port
	// list is the iteration order (attachment order) for polling.
	list  []*netdev.Interface
	local map[pkt.Addr]int32
	// drains are the registered drainers in registration order, the
	// order TxDrain serves a port's in. A flat list: the sched gate
	// looks an instance up in it for every packet it schedules
	// (servesElsewhere), and there are few.
	drains []drain
}

// drain is a scheduling instance's output queue on port ifIdx.
type drain struct {
	ifIdx int32
	d     Drainer
}

// port is one attached interface's entry: the interface, its default
// output FIFO and draining, the run loop's try-lock that lets one
// worker at a time drain the port. Every snapshot shares the port.
type port struct {
	ifc      *netdev.Interface
	outQ     *sched.LockedFIFO
	draining atomic.Bool
}

// clone copies the maps (ports, interfaces and the drains' backing
// array are shared; writers append with a full slice expression).
func (s *ifaceState) clone() *ifaceState {
	ns := &ifaceState{
		ports:  make(map[int32]*port, len(s.ports)+1),
		list:   append([]*netdev.Interface(nil), s.list...),
		local:  make(map[pkt.Addr]int32, len(s.local)+1),
		drains: s.drains,
	}
	for k, v := range s.ports {
		ns.ports[k] = v
	}
	for k, v := range s.local {
		ns.local[k] = v
	}
	return ns
}

// servesElsewhere reports whether inst is registered as a drainer of
// some port but not of port idx: a scheduling instance that serves
// another port, which must not take a packet routed to idx. An instance
// registered as no port's drainer is not one of them. It compares
// interface values only, so it costs no type assertion and no
// allocation on the forwarding path. It stays out of line: inlined
// into the gate walk it measured slower on both benchmark workloads.
//
//eisr:fastpath
//go:noinline
func (s *ifaceState) servesElsewhere(idx int32, inst pcu.Instance) bool {
	elsewhere := false
	for _, x := range s.drains {
		if any(x.d) == any(inst) {
			if x.ifIdx == idx {
				return false
			}
			elsewhere = true
		}
	}
	return elsewhere
}

// Config assembles a router core.
type Config struct {
	Mode  Mode
	Gates []pcu.Type // plugin mode; nil = DefaultGates
	AIU   *aiu.AIU   // required in plugin mode
	// Routes is the destination forwarding table (both modes).
	Routes *routing.Table
	// MonoSched, in best-effort mode, replaces the output FIFO with a
	// hard-wired scheduler (the ALTQ+DRR baseline). nil = plain FIFO.
	MonoSched sched.Scheduler
	// VerifyChecksums enables IPv4 header checksum validation (the
	// paper's kernel does this; toggleable for ablation).
	VerifyChecksums bool
	// SendICMPErrors makes the core answer TTL expiry and routing
	// failures with ICMP time-exceeded / destination-unreachable
	// messages (rate limited), as a real router does.
	SendICMPErrors bool
	// ICMPRate caps generated ICMP errors per second (0 = 100).
	ICMPRate int
	// LocalSink receives packets addressed to one of the router's own
	// interfaces (daemons, control protocols). nil = count and drop.
	// Delivery is synchronous and the packet is recycled when the sink
	// returns: a sink must not keep the *pkt.Packet or its Data past
	// the call — it copies what it needs (Clone for a whole packet).
	LocalSink func(p *pkt.Packet)
	// Clock times the ICMP rate limiter; defaults to time.Now.
	Clock func() time.Time
	// Workers sizes the forwarding engine: every attached interface gets
	// one RX ring per worker, Receive steers each packet to a ring by
	// flow hash, preserving per-flow ordering, and Run runs one worker
	// per ring. 0 or 1 keeps the paper's single flow of control.
	Workers int
	// OutQueueLen overrides the per-interface output FIFO depth
	// (0 = 1024).
	OutQueueLen int
	// BatchSize caps the per-worker forwarding vector: a worker polls up
	// to this many packets from its ring per interface and pass and
	// walks them through ForwardBatch (0 = DefaultBatchSize; 1
	// degenerates to per-packet forwarding).
	BatchSize int
	// Tel, when non-nil, attaches the telemetry registry: per-gate
	// dispatch counters, drop/verdict accounting, and (when a trace
	// ring is enabled on the registry) per-packet path traces.
	Tel *telemetry.Telemetry
	// Guard is the plugin fault barrier every gate dispatch runs
	// through. A nil Guard still contains panics (the barrier methods
	// are nil-receiver safe) with the default drop policy; wiring one
	// adds the policy choice and per-instance health tracking.
	Guard *pcu.Guard
}

// Router is the forwarding engine plus its attached interfaces.
type Router struct {
	cfg   Config
	mode  Mode
	gates []pcu.Type
	// gateSlots pairs each gate with its flow-record slot, precomputed
	// so the per-packet gate "macro" needs no map lookup.
	gateSlots []int
	aiu       *aiu.AIU

	// state is the copy-on-write interface table: the data path loads
	// the snapshot with one atomic read and never takes a lock; control
	// path mutators rebuild and republish under mu. This is the same
	// discipline as the flow records' bind slices — in-flight readers
	// may see the just-replaced snapshot, never a torn one.
	mu    sync.Mutex // serializes state mutators
	state atomic.Pointer[ifaceState]

	// rec is the epoch reclaimer the workers announce quiescence to.
	rec *pcu.Reclaimer
	// stepW holds Step's worker between Steps (Step).
	stepW atomic.Pointer[worker]

	// guard is the plugin fault barrier (Config.Guard; nil-safe).
	guard *pcu.Guard

	stats coreStats

	icmpMu     sync.Mutex
	icmpTokens float64
	icmpLast   time.Time

	clock func() time.Time

	// Counter, when non-nil, accumulates classifier cost accounting for
	// every forwarded packet (benchmark instrumentation).
	Counter *cycles.Counter

	// Registry-owned telemetry cells: the events with no Stats twin. The
	// slices are always allocated to gate length so the per-gate fast
	// path can index them unconditionally; with telemetry off every cell
	// is nil and every record call is a no-op.
	tel             *telemetry.Telemetry
	gateNames       []string
	telGateDispatch []*telemetry.Counter
	telGateNanos    []*telemetry.Histogram
	telPktNanos     *telemetry.Histogram

	// ptrace is the in-band path tracer (eisrpath), captured from the
	// registry at assembly; nil (all methods no-op) when path tracing
	// was not enabled. The sampling rate inside it is runtime-mutable.
	ptrace *telemetry.PathTracer
}

// New assembles a router.
func New(cfg Config) (*Router, error) {
	if cfg.Routes == nil {
		return nil, fmt.Errorf("ipcore: a routing table is required")
	}
	if cfg.Mode == ModePlugin && cfg.AIU == nil {
		return nil, fmt.Errorf("ipcore: plugin mode requires an AIU")
	}
	gates := cfg.Gates
	if gates == nil {
		gates = DefaultGates
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	r := &Router{
		cfg: cfg, mode: cfg.Mode, gates: gates, aiu: cfg.AIU,
		clock: clock, guard: cfg.Guard, rec: pcu.NewReclaimer(),
	}
	r.state.Store(&ifaceState{
		ports: make(map[int32]*port),
		local: make(map[pkt.Addr]int32),
	})
	if cfg.AIU != nil {
		r.gateSlots = make([]int, len(gates))
		for i, g := range gates {
			slot, ok := cfg.AIU.Slot(g)
			if !ok {
				return nil, fmt.Errorf("ipcore: AIU does not serve gate %s", g)
			}
			r.gateSlots[i] = slot
		}
	}
	r.initTelemetry(cfg.Tel)
	return r, nil
}

// initTelemetry registers the core's metric cells. With t == nil the
// per-gate slices still exist (so the fast path indexes them without a
// branch) but every cell is nil and records nothing.
func (r *Router) initTelemetry(t *telemetry.Telemetry) {
	r.tel = t
	r.ptrace = t.PathTracer() // nil-safe; nil tracer no-ops every call
	r.gateNames = make([]string, len(r.gates))
	r.telGateDispatch = make([]*telemetry.Counter, len(r.gates))
	r.telGateNanos = make([]*telemetry.Histogram, len(r.gates))
	for i, g := range r.gates {
		r.gateNames[i] = g.String()
	}
	if t == nil {
		return
	}
	for i, g := range r.gates {
		l := telemetry.Label{Key: "gate", Value: g.String()}
		r.telGateDispatch[i] = t.Counter("eisr_gate_dispatch_total",
			"packets entering each gate", l)
		r.telGateNanos[i] = t.Histogram("eisr_gate_ns",
			"per-gate dispatch nanoseconds (traced packets only)", l)
	}
	verdict := func(v string) telemetry.Label { return telemetry.Label{Key: "verdict", Value: v} }
	t.CounterFunc("eisr_verdicts_total", "packet fates", r.stats.forwarded.Value, verdict("forwarded"))
	t.CounterFunc("eisr_verdicts_total", "packet fates", r.stats.delivered.Value, verdict("delivered"))
	t.CounterFunc("eisr_verdicts_total", "packet fates", r.dropped, verdict("dropped"))
	t.Drops("ipcore", func(why pkt.DropReason) uint64 { return r.stats.drops[why].Value() }, nil, coreReasons...)
	t.CounterFunc("eisr_degraded_packets_total",
		"packets forwarded past a faulted gate under the forward policy", r.stats.degraded.Value)
	r.telPktNanos = t.Histogram("eisr_packet_ns",
		"end-to-end data-path nanoseconds (traced packets only)")
}

// AddInterface attaches an interface to the router. An interface
// attached under an index that already has one replaces it, in the
// same place of the polling order; attaching the same interface again
// changes nothing.
func (r *Router) AddInterface(ifc *netdev.Interface) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.state.Load()
	prev := old.ports[ifc.Index]
	if prev != nil && prev.ifc == ifc {
		return
	}
	ns := old.clone()
	if prev == nil {
		ns.list = append(ns.list, ifc)
	} else {
		ns.list[slices.Index(ns.list, prev.ifc)] = ifc
		maps.DeleteFunc(ns.local, func(_ pkt.Addr, idx int32) bool { return idx == ifc.Index })
	}
	depth := r.cfg.OutQueueLen
	if depth <= 0 {
		depth = 1024
	}
	ns.ports[ifc.Index] = &port{ifc: ifc, outQ: sched.NewLockedFIFO(depth)}
	// One RX ring per worker, and mbufs for every ring and every
	// worker's vector, before the interface is published to the workers.
	batch := r.cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	ifc.SetQueues(r.queues(), batch)
	ifc.SetTelemetry(r.tel)
	var zero pkt.Addr
	if ifc.Addr != zero {
		ns.local[ifc.Addr] = ifc.Index
	}
	r.state.Store(ns)
}

// Interface returns an attached interface.
func (r *Router) Interface(idx int32) *netdev.Interface {
	if pt := r.state.Load().ports[idx]; pt != nil {
		return pt.ifc
	}
	return nil
}

// Interfaces lists attached interfaces in attachment order.
func (r *Router) Interfaces() []*netdev.Interface {
	return append([]*netdev.Interface(nil), r.state.Load().list...)
}

// queues is the worker count, and so the RX ring count of every
// attached interface: max(1, Config.Workers).
func (r *Router) queues() int { return max(1, r.cfg.Workers) }

// Reclaimer returns the epoch reclaimer the workers announce
// quiescence to. The PCU defers free-instance callbacks through it, so
// an instance is destroyed only after every dispatch in flight when it
// was freed has finished.
func (r *Router) Reclaimer() *pcu.Reclaimer { return r.rec }

// RegisterDrainer attaches a scheduling instance's output queue to an
// interface (called by scheduler plugins on create-instance).
func (r *Router) RegisterDrainer(ifIdx int32, d Drainer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.state.Load().clone()
	ns.drains = append(ns.drains[:len(ns.drains):len(ns.drains)], drain{ifIdx, d})
	r.state.Store(ns)
}

// UnregisterDrainer detaches a drainer (free-instance). The whole state
// is rebuilt copy-on-write: TxDrain walks the drain list with no lock
// held, so the old list must stay intact for in-flight readers.
func (r *Router) UnregisterDrainer(ifIdx int32, d Drainer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.state.Load().clone()
	ns.drains = slices.DeleteFunc(slices.Clone(ns.drains), func(x drain) bool { return x == drain{ifIdx, d} })
	r.state.Store(ns)
}

// AIU exposes the classifier (plugin mode).
func (r *Router) AIU() *aiu.AIU { return r.aiu }

// Routes exposes the forwarding table.
func (r *Router) Routes() *routing.Table { return r.cfg.Routes }

// Stats snapshots the counters.
func (r *Router) Stats() Stats {
	s := &r.stats
	return Stats{
		Forwarded:    s.forwarded.Value(),
		Delivered:    s.delivered.Value(),
		Dropped:      r.dropped(),
		TTLExpired:   s.drops[pkt.DropTTL].Value(),
		BadChecksum:  s.drops[pkt.DropBadChecksum].Value(),
		NoRoute:      s.drops[pkt.DropNoRoute].Value(),
		PluginDrops:  s.drops[pkt.DropPlugin].Value(),
		PluginFaults: s.faults.Value(),
		Degraded:     s.degraded.Value(),
		SchedEnq:     s.schedEnq.Value(),
		ICMPSent:     s.icmpSent.Value(),
		Fragmented:   s.fragmented.Value(),
	}
}

// dropped totals the core's drop cells.
func (r *Router) dropped() uint64 {
	var n uint64
	for i := range r.stats.drops {
		n += r.stats.drops[i].Value()
	}
	return n
}

// Forward runs one packet through the data path up to (and including)
// output queueing. It returns true if the packet survived to an output
// queue or local delivery. In plugin mode the packet is a vector of one
// through the gate walk, with its lane on this call's stack: Forward is
// safe for concurrent callers and allocates nothing.
//
// The interface-state snapshot is loaded exactly once here and threaded
// through the whole walk: a packet is forwarded against one coherent
// generation of the interface/queue tables even if the control plane
// publishes a new one mid-flight (snapdiscipline enforces this).
//
//eisr:fastpath
func (r *Router) Forward(p *pkt.Packet) bool {
	ok, _ := r.forward(p)
	return ok
}

// forward is Forward that also returns the output interface the packet
// was routed to, or -1 when it was not routed. The interface is taken
// from the walk, not from the packet: once the packet is handed to an
// output stage, a concurrent drainer may already have recycled it.
//
//eisr:fastpath
func (r *Router) forward(p *pkt.Packet) (bool, int32) {
	st := r.state.Load()
	if r.mode == ModeBestEffort {
		return r.forwardMono(p, st)
	}
	var lane [1]aiu.Lane
	var state [1]laneState
	lane[0].P = p
	ok := r.walk(&vec{lanes: lane[:], state: state[:]}, st, nil) == 1
	if !state[0].routed {
		return ok, -1
	}
	return ok, state[0].outIf
}

// forwardMono is the unmodified best-effort kernel: a chain of direct
// ("hardwired") function calls. It returns forward's results.
//
//eisr:fastpath
func (r *Router) forwardMono(p *pkt.Packet, st *ifaceState) (bool, int32) {
	if why := r.validate(p); why != pkt.DropNone {
		r.release(p, why)
		return false, -1
	}
	if done, why := r.route(p, st, r.Counter); done {
		r.release(p, why)
		return why == pkt.DropNone, -1
	}
	out, why := p.OutIf, pkt.DropNone
	switch {
	case r.cfg.MonoSched == nil:
		why = r.enqueueFIFO(p, st)
	case r.cfg.MonoSched.Enqueue(p) != nil:
		why = pkt.DropQueueFull
	default:
		r.stats.schedEnq.Add(1)
		r.stats.forwarded.Add(1)
	}
	if why != pkt.DropNone {
		r.release(p, why)
	}
	return why == pkt.DropNone, out
}

// release ends a packet's life in the core: it counts a lost packet
// under its reason (pkt.DropNone, a delivered or fragmented one, counts
// nothing) and returns the packet to its pool. It is the only place the
// core counts a drop or releases a packet; the stages that decide a
// packet's fate return a reason and leave the packet to their caller.
//
//eisr:fastpath
func (r *Router) release(p *pkt.Packet, why pkt.DropReason) {
	if why != pkt.DropNone {
		r.stats.drops[why].Add(1)
	}
	p.ReleaseBuf()
}

// route is the forwarding decision, made once per packet: local
// delivery, else the destination lookup (unless a routing instance
// already chose the output interface), then the TTL decrement. done
// reports that the packet reached its verdict here: delivered (why is
// pkt.DropNone) or lost for why; otherwise it goes on to output.
//
// In plugin mode the decision is made at the routing gate, *after* the
// security gate: a tunnel packet addressed to this gateway is decrypted
// first, and the inner datagram is what gets forwarded or delivered —
// the paper's "gate is inserted into the IP core code in place of the
// traditional call to the kernel function responsible for IPv6 security
// processing".
//
//eisr:fastpath
func (r *Router) route(p *pkt.Packet, st *ifaceState, c *cycles.Counter) (done bool, why pkt.DropReason) {
	if r.deliverLocal(p, st) {
		return true, pkt.DropNone
	}
	if p.OutIf < 0 {
		nh, found := r.cfg.Routes.Lookup(p.Key.Dst, c)
		if !found {
			r.sendICMPError(p, pkt.ICMPv4DestUnreach, pkt.ICMPv6DestUnreach, 0, 0)
			return true, pkt.DropNoRoute
		}
		p.OutIf = nh.IfIndex
		p.NextHop = nh.Gateway
	}
	why = r.decTTL(p)
	return why != pkt.DropNone, why
}

// gateDispatch runs one gate's instance through the fault barrier and
// applies the fault policy. It returns the packet's verdict at the
// gate — a reason to drop it (the instance rejected it, or faulted
// under the drop policy), else pkt.DropNone — and faulted: a
// faulted-but-continuing packet is *degraded* — the caller must treat
// the gate as if no instance were bound (no p.Drop honor, no sched
// bookkeeping), because the instance may have panicked before doing
// any of its work. The no-fault path adds only the barrier's
// open-coded defer; the fault arms below are cold.
//
//eisr:fastpath
func (r *Router) gateDispatch(g pcu.Type, inst pcu.Instance, p *pkt.Packet) (why pkt.DropReason, faulted bool) {
	err, flt := r.guard.Dispatch(g, inst, p)
	switch {
	case flt != nil:
		r.stats.faults.Add(1)
		return r.faultVerdict(p), true
	case err != nil:
		return pkt.DropPlugin, false
	}
	return pkt.DropNone, false
}

// faultVerdict applies the fault policy to one packet of a faulted
// dispatch: under the forward policy the packet continues degraded
// (pkt.DropNone); otherwise it is a plugin-fault drop.
//
//eisr:fastpath
func (r *Router) faultVerdict(p *pkt.Packet) pkt.DropReason {
	if r.guard.Policy() != pcu.PolicyForward {
		return pkt.DropPluginFault
	}
	p.Drop = false
	r.stats.degraded.Add(1)
	return pkt.DropNone
}

// validate performs the version/checksum/sanity checks of ip_input and
// returns the reason to drop the packet, or pkt.DropNone. The output
// interface is this forwarding pass's decision, so any value the packet
// arrived with is cleared.
func (r *Router) validate(p *pkt.Packet) pkt.DropReason {
	p.OutIf = -1
	switch p.Version() {
	case 4:
		if r.cfg.VerifyChecksums && !pkt.VerifyIPv4Checksum(p.Data) {
			return pkt.DropBadChecksum
		}
	case 6:
		// No header checksum in IPv6.
	default:
		return pkt.DropMalformed
	}
	if !p.KeyValid {
		k, err := pkt.ExtractKey(p.Data, p.InIf)
		if err != nil {
			return pkt.DropMalformed
		}
		p.SetKey(k)
	}
	return pkt.DropNone
}

// deliverLocal punts packets addressed to the router itself, including
// the limited broadcast (255.255.255.255), which is never forwarded.
// st is the caller's interface-state snapshot (loaded once per
// invocation at the fastpath root).
func (r *Router) deliverLocal(p *pkt.Packet, st *ifaceState) bool {
	mine := p.Key.Dst == limitedBroadcast
	if !mine {
		_, mine = st.local[p.Key.Dst]
	}
	if !mine {
		return false
	}
	r.deliver(p)
	return true
}

// deliver hands a packet to the local sink. Delivery is synchronous: a
// handler that retains payload must copy it, so the packet recycles as
// soon as its caller releases it after the sink returns (the same
// validity contract the driver's descriptor ring gave).
func (r *Router) deliver(p *pkt.Packet) {
	r.stats.delivered.Add(1)
	if r.cfg.LocalSink != nil {
		r.cfg.LocalSink(p)
	}
}

// decTTL decrements the TTL or hop limit; an expired packet is answered
// with an ICMP time-exceeded when enabled and returns pkt.DropTTL.
func (r *Router) decTTL(p *pkt.Packet) pkt.DropReason {
	var err error
	switch p.Version() {
	case 4:
		_, err = pkt.DecTTLv4(p.Data)
	case 6:
		_, err = pkt.DecHopLimit(p.Data)
	}
	if err != nil {
		r.sendICMPError(p, pkt.ICMPv4TimeExceeded, pkt.ICMPv6TimeExceeded, 0, 0)
		return pkt.DropTTL
	}
	return pkt.DropNone
}

// sendICMPError emits a rate-limited ICMP error about p back toward its
// source, using the receiving interface's address as the router address.
// Errors are never generated about ICMP errors (RFC 1122). This is an
// exception path: it allocates and takes the rate-limiter mutex, so it
// is the fast/slow boundary.
//
//eisr:slowpath
func (r *Router) sendICMPError(p *pkt.Packet, v4type, v6type, v4code, v6code uint8) {
	if !r.cfg.SendICMPErrors || pkt.IsICMPError(p.Data) {
		return
	}
	if !r.takeICMPToken() {
		return
	}
	ifc := r.Interface(p.InIf)
	var zero pkt.Addr
	if ifc == nil || ifc.Addr == zero {
		return
	}
	ty, code := v4type, v4code
	if p.Version() == 6 {
		ty, code = v6type, v6code
	}
	if ifc.Addr.IsV6() != (p.Version() == 6) {
		return // no same-family address to source the error from
	}
	data, err := pkt.BuildICMPError(p.Data, ifc.Addr, ty, code)
	if err != nil {
		return
	}
	q, err := pkt.NewPacket(data, -1)
	if err != nil {
		return
	}
	nh, ok := r.cfg.Routes.Lookup(q.Key.Dst, nil)
	if !ok {
		return
	}
	q.OutIf = nh.IfIndex
	q.NextHop = nh.Gateway
	// Slow-path boundary: the error packet is a fresh invocation with
	// its own snapshot, not part of the triggering packet's epoch.
	if why := r.enqueueFIFO(q, r.state.Load()); why != pkt.DropNone {
		r.release(q, why)
	}
	r.stats.icmpSent.Add(1)
}

// takeICMPToken enforces the ICMP error rate limit.
func (r *Router) takeICMPToken() bool {
	rate := float64(r.cfg.ICMPRate)
	if rate <= 0 {
		rate = 100
	}
	now := r.clock()
	r.icmpMu.Lock()
	defer r.icmpMu.Unlock()
	if r.icmpLast.IsZero() {
		r.icmpLast = now
		r.icmpTokens = rate
	}
	// Clamp the refill to non-negative: a backwards clock step (NTP,
	// manual set) must not drain the bucket below zero and mute ICMP
	// errors until the clock catches back up.
	if dt := now.Sub(r.icmpLast).Seconds(); dt > 0 {
		r.icmpTokens += dt * rate
	}
	if r.icmpTokens > rate {
		r.icmpTokens = rate
	}
	r.icmpLast = now
	if r.icmpTokens < 1 {
		return false
	}
	r.icmpTokens--
	return true
}

// enqueueFIFO queues p on its output interface's FIFO, which then owns
// it. A refused packet stays the caller's, with the reason: no-output
// when the interface is not attached, queue-full when the FIFO has no
// room.
func (r *Router) enqueueFIFO(p *pkt.Packet, st *ifaceState) pkt.DropReason {
	pt := st.ports[p.OutIf]
	if pt == nil {
		return pkt.DropNoOutput
	}
	if pt.outQ.Enqueue(p) != nil {
		return pkt.DropQueueFull
	}
	r.stats.forwarded.Add(1)
	return pkt.DropNone
}

// TxDrain transmits up to budget packets queued for an interface,
// serving plugin schedulers first, then the default FIFO (and, in
// best-effort mode, the hard-wired scheduler). It returns the number of
// packets transmitted.
//
//eisr:fastpath
func (r *Router) TxDrain(ifIdx int32, budget int) int {
	st := r.state.Load()
	pt := st.ports[ifIdx]
	if pt == nil {
		return 0
	}
	sent := 0
	for sent < budget {
		var p *pkt.Packet
		for _, x := range st.drains {
			if x.ifIdx != ifIdx {
				continue
			}
			if p = x.d.Drain(); p != nil {
				break
			}
		}
		if p == nil && r.mode == ModeBestEffort && r.cfg.MonoSched != nil {
			p = r.cfg.MonoSched.Dequeue()
		}
		if p == nil {
			p = pt.outQ.Dequeue()
		}
		if p == nil {
			break
		}
		// A packet leaves on the interface it was routed to. Only the
		// shared mono scheduler hands over one routed elsewhere: the
		// sched gate gives a plugin instance only packets routed to a
		// port it drains.
		out := pt
		if p.OutIf != ifIdx {
			out = st.ports[p.OutIf]
		}
		r.transmit(p, out)
		sent++
	}
	return sent
}

// transmit puts one packet on the wire through pt, the port of its
// output interface in the caller's snapshot: a whole TxDrain batch
// transmits against one interface-table generation. It consumes the
// packet: the interface takes it, or release retires it. A packet routed
// to an interface that is not attached (one the shared mono scheduler
// hands over, or one detached since) is a no-output drop.
func (r *Router) transmit(p *pkt.Packet, pt *port) {
	if pt == nil {
		r.release(p, pkt.DropNoOutput)
		return
	}
	ifc := pt.ifc
	if len(p.Data) > ifc.MTU {
		// The next link cannot carry the datagram: fragment IPv4 when
		// DF is clear; otherwise drop with fragmentation-needed (v4,
		// type 3 code 4) or packet-too-big (v6, type 2).
		if p.Version() == 4 && !pkt.DontFragment(p.Data) {
			frags, err := pkt.FragmentIPv4(p.Data, ifc.MTU)
			if err == nil {
				for _, f := range frags {
					q := *p
					q.Data = f
					q.FIX = nil
					// The fragment copies don't own the original's
					// receive buffer; it is released once, below, after
					// every fragment has been consumed by Transmit.
					q.Owner = nil
					q.QNext = nil
					ifc.Transmit(&q)
				}
				r.stats.fragmented.Add(1)
				r.release(p, pkt.DropNone)
				return
			}
		}
		r.sendICMPError(p, pkt.ICMPv4DestUnreach, pkt.ICMPv6PacketTooBig, 4, 0)
		r.release(p, pkt.DropMTU)
		return
	}
	ifc.Transmit(p)
}

// ProcessOne runs a single received packet through the complete
// forward-and-transmit cycle — the measurement path of §7.3, where the
// packet is timestamped on receive and the cycle counter is read just
// before it is handed back to the hardware. It drains the output
// interface the walk routed the packet to, never reading the packet
// after handing it on, so another goroutine may drain the same
// interface concurrently.
func (r *Router) ProcessOne(p *pkt.Packet) bool {
	ok, out := r.forward(p)
	if !ok {
		return false
	}
	if out >= 0 {
		r.TxDrain(out, 4)
	}
	return true
}
