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
	drops      [numDropReasons]telemetry.Counter
}

// dropReason indexes the core's drop cells, one per reason.
type dropReason uint8

const (
	dropBadChecksum dropReason = iota
	dropMalformed
	dropTTL
	dropNoRoute
	dropPlugin
	dropFault
	dropQueue
	dropMTU
	numDropReasons
)

// dropReasonLabels are the eisr_drops_total reason label values.
var dropReasonLabels = [numDropReasons]string{
	"bad-checksum", "malformed", "ttl-expired", "no-route",
	"plugin", "plugin-fault", "queue-full", "mtu",
}

// ifaceState is one immutable generation of the router's interface
// table: attached interfaces, the local-address set, per-interface
// output queues, and registered drainers. Mutators copy, modify, and
// republish; the data path reads it with a single atomic load.
type ifaceState struct {
	ifaces map[int32]*netdev.Interface
	// list is the iteration order (attachment order) for Step/polling.
	list     []*netdev.Interface
	local    map[pkt.Addr]int32
	outQ     map[int32]*sched.LockedFIFO
	drainers map[int32][]Drainer
}

// clone deep-copies the maps (the interfaces themselves are shared).
func (s *ifaceState) clone() *ifaceState {
	ns := &ifaceState{
		ifaces:   make(map[int32]*netdev.Interface, len(s.ifaces)+1),
		list:     append([]*netdev.Interface(nil), s.list...),
		local:    make(map[pkt.Addr]int32, len(s.local)+1),
		outQ:     make(map[int32]*sched.LockedFIFO, len(s.outQ)+1),
		drainers: make(map[int32][]Drainer, len(s.drainers)+1),
	}
	for k, v := range s.ifaces {
		ns.ifaces[k] = v
	}
	for k, v := range s.local {
		ns.local[k] = v
	}
	for k, v := range s.outQ {
		ns.outQ[k] = v
	}
	for k, v := range s.drainers {
		ns.drainers[k] = append([]Drainer(nil), v...)
	}
	return ns
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
	// Clock supplies the AIU's notion of now; defaults to time.Now.
	Clock func() time.Time
	// Workers sizes the forwarding worker pool: Run steers ingress
	// packets to Workers goroutines by flow hash, preserving per-flow
	// ordering. 0 or 1 keeps the paper's single flow of control (Step
	// and ProcessOne always run inline regardless).
	Workers int
	// OutQueueLen overrides the per-interface output FIFO depth
	// (0 = 1024).
	OutQueueLen int
	// Reclaim, when non-nil, is the epoch reclaimer the worker pool
	// announces quiescence to; wire the same instance into the PCU so
	// free-instance destruction waits out in-flight dispatches.
	Reclaim *pcu.Reclaimer
	// BatchSize caps the per-worker forwarding vector: each pool worker
	// drains up to this many queued packets per iteration and walks
	// them through ForwardBatch (0 = DefaultBatchSize; 1 degenerates to
	// per-packet forwarding).
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

	// pool is the worker pool (nil unless Config.Workers > 1); Run
	// steers through it instead of forwarding inline.
	pool *Pool

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
		clock: clock, guard: cfg.Guard,
	}
	r.state.Store(&ifaceState{
		ifaces:   make(map[int32]*netdev.Interface),
		local:    make(map[pkt.Addr]int32),
		outQ:     make(map[int32]*sched.LockedFIFO),
		drainers: make(map[int32][]Drainer),
	})
	if cfg.Workers > 1 {
		r.pool = NewPool(r, cfg.Workers, cfg.Reclaim, cfg.BatchSize)
	}
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
	for why := range r.stats.drops {
		t.CounterFunc("eisr_drops_total", "packets dropped by reason", r.stats.drops[why].Value,
			telemetry.Label{Key: "reason", Value: dropReasonLabels[why]})
	}
	t.CounterFunc("eisr_pool_drop_full",
		"packets dropped at Submit because the owning worker's ingress queue was full", r.pool.DropTotal)
	t.CounterFunc("eisr_degraded_packets_total",
		"packets forwarded past a faulted gate under the forward policy", r.stats.degraded.Value)
	r.telPktNanos = t.Histogram("eisr_packet_ns",
		"end-to-end data-path nanoseconds (traced packets only)")
}

// AddInterface attaches an interface to the router.
func (r *Router) AddInterface(ifc *netdev.Interface) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.state.Load().clone()
	if _, seen := ns.ifaces[ifc.Index]; !seen {
		ns.list = append(ns.list, ifc)
	}
	ns.ifaces[ifc.Index] = ifc
	depth := r.cfg.OutQueueLen
	if depth <= 0 {
		depth = 1024
	}
	ns.outQ[ifc.Index] = sched.NewLockedFIFO(depth)
	// With a worker pool a packet can sit in a worker's ingress queue
	// long after it left the RX ring; extend the interface's mbuf pool to
	// cover the total worker queue depth so a backlogged packet's buffer
	// is not recycled underneath it.
	if r.pool != nil {
		ifc.ReserveMbufs(r.pool.n * poolQueueLen)
	}
	ifc.SetTelemetry(r.tel)
	var zero pkt.Addr
	if ifc.Addr != zero {
		ns.local[ifc.Addr] = ifc.Index
	}
	r.state.Store(ns)
}

// Interface returns an attached interface.
func (r *Router) Interface(idx int32) *netdev.Interface {
	return r.state.Load().ifaces[idx]
}

// Interfaces lists attached interfaces in attachment order.
func (r *Router) Interfaces() []*netdev.Interface {
	return append([]*netdev.Interface(nil), r.state.Load().list...)
}

// Pool returns the worker pool (nil in single-threaded configurations).
func (r *Router) Pool() *Pool { return r.pool }

// RegisterDrainer attaches a scheduling instance's output queue to an
// interface (called by scheduler plugins on create-instance).
func (r *Router) RegisterDrainer(ifIdx int32, d Drainer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.state.Load().clone()
	ns.drainers[ifIdx] = append(ns.drainers[ifIdx], d)
	r.state.Store(ns)
}

// UnregisterDrainer detaches a drainer (free-instance). The whole state
// is rebuilt copy-on-write: TxDrain walks the drainer slice with no lock
// held, so the old slice must stay intact for in-flight readers.
func (r *Router) UnregisterDrainer(ifIdx int32, d Drainer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.state.Load().clone()
	old := ns.drainers[ifIdx]
	list := make([]Drainer, 0, len(old))
	for _, x := range old {
		if x != d {
			list = append(list, x)
		}
	}
	ns.drainers[ifIdx] = list
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
		TTLExpired:   s.drops[dropTTL].Value(),
		BadChecksum:  s.drops[dropBadChecksum].Value(),
		NoRoute:      s.drops[dropNoRoute].Value(),
		PluginDrops:  s.drops[dropPlugin].Value(),
		PluginFaults: s.faults.Value(),
		Degraded:     s.degraded.Value(),
		SchedEnq:     s.schedEnq.Value(),
		ICMPSent:     s.icmpSent.Value(),
		Fragmented:   s.fragmented.Value(),
	}
}

// dropped totals every drop reason plus the worker pool's ingress
// sheds.
func (r *Router) dropped() uint64 {
	n := r.pool.DropTotal()
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
	if !r.validate(p) {
		return false, -1
	}
	if cont, ok := r.route(p, st, r.Counter); !cont {
		return ok, -1
	}
	out := p.OutIf
	if r.cfg.MonoSched != nil {
		if err := r.cfg.MonoSched.Enqueue(p); err != nil {
			r.stats.drops[dropQueue].Add(1)
			p.ReleaseBuf()
			return false, out
		}
		r.stats.schedEnq.Add(1)
		r.stats.forwarded.Add(1)
		return true, out
	}
	return r.enqueueFIFO(p, st), out
}

// route is the forwarding decision, made once per packet: local
// delivery, else the destination lookup (unless a routing instance
// already chose the output interface), then the TTL decrement. cont
// reports that the packet goes on to output; otherwise it reached its
// verdict here and ok tells whether it survived (was delivered).
//
// In plugin mode the decision is made at the routing gate, *after* the
// security gate: a tunnel packet addressed to this gateway is decrypted
// first, and the inner datagram is what gets forwarded or delivered —
// the paper's "gate is inserted into the IP core code in place of the
// traditional call to the kernel function responsible for IPv6 security
// processing".
//
//eisr:fastpath
func (r *Router) route(p *pkt.Packet, st *ifaceState, c *cycles.Counter) (cont, ok bool) {
	if r.deliverLocal(p, st) {
		return false, true
	}
	if p.OutIf < 0 {
		nh, found := r.cfg.Routes.Lookup(p.Key.Dst, c)
		if !found {
			return false, r.dropNoRoute(p)
		}
		p.OutIf = nh.IfIndex
		p.NextHop = nh.Gateway
	}
	return r.decTTL(p), false
}

// gateDispatch runs one gate's instance through the fault barrier and
// applies the fault policy. It returns the instance's verdict — a
// non-nil err rejects the packet, which the caller drops — then cont
// (keep walking the gate chain; false when the fault policy dropped the
// packet) and faulted: a faulted-but-continuing packet is *degraded* —
// the caller must treat the gate as if no instance were bound (no
// p.Drop honor, no sched bookkeeping), because the instance may have
// panicked before doing any of its work. The no-fault path adds only
// the barrier's open-coded defer; the fault arms below are cold.
//
//eisr:fastpath
func (r *Router) gateDispatch(g pcu.Type, inst pcu.Instance, p *pkt.Packet) (err error, cont, faulted bool) {
	err, flt := r.guard.Dispatch(g, inst, p)
	if flt == nil {
		return err, true, false
	}
	r.stats.faults.Add(1)
	return nil, r.faultVerdict(p, flt), true
}

// faultVerdict applies the fault policy to one packet of a faulted
// dispatch: under the forward policy the packet continues degraded
// (true); otherwise it is dropped with the fault as reason.
//
//eisr:fastpath
func (r *Router) faultVerdict(p *pkt.Packet, flt *pcu.PluginFault) bool {
	if r.guard.Policy() == pcu.PolicyForward {
		p.Drop = false
		r.stats.degraded.Add(1)
		return true
	}
	if !p.Drop {
		p.MarkDrop(flt.Error())
	}
	r.stats.drops[dropFault].Add(1)
	p.ReleaseBuf()
	return false
}

// validate performs the version/checksum/sanity checks of ip_input.
// The output interface is this forwarding pass's decision, so any value
// the packet arrived with is cleared.
func (r *Router) validate(p *pkt.Packet) bool {
	p.OutIf = -1
	switch p.Version() {
	case 4:
		if r.cfg.VerifyChecksums && !pkt.VerifyIPv4Checksum(p.Data) {
			r.stats.drops[dropBadChecksum].Add(1)
			p.ReleaseBuf()
			return false
		}
	case 6:
		// No header checksum in IPv6.
	default:
		r.stats.drops[dropMalformed].Add(1)
		p.ReleaseBuf()
		return false
	}
	if !p.KeyValid {
		k, err := pkt.ExtractKey(p.Data, p.InIf)
		if err != nil {
			r.stats.drops[dropMalformed].Add(1)
			p.ReleaseBuf()
			return false
		}
		p.SetKey(k)
	}
	return true
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
// soon as the sink returns (the same validity contract the driver's
// descriptor ring gave).
func (r *Router) deliver(p *pkt.Packet) {
	r.stats.delivered.Add(1)
	if r.cfg.LocalSink != nil {
		r.cfg.LocalSink(p)
	}
	p.ReleaseBuf()
}

func (r *Router) decTTL(p *pkt.Packet) bool {
	var err error
	switch p.Version() {
	case 4:
		_, err = pkt.DecTTLv4(p.Data)
	case 6:
		_, err = pkt.DecHopLimit(p.Data)
	}
	if err != nil {
		r.stats.drops[dropTTL].Add(1)
		r.sendICMPError(p, pkt.ICMPv4TimeExceeded, pkt.ICMPv6TimeExceeded, 0, 0)
		p.ReleaseBuf()
		return false
	}
	return true
}

// dropNoRoute counts a routing failure and answers with an ICMP
// destination-unreachable when enabled.
func (r *Router) dropNoRoute(p *pkt.Packet) bool {
	r.stats.drops[dropNoRoute].Add(1)
	r.sendICMPError(p, pkt.ICMPv4DestUnreach, pkt.ICMPv6DestUnreach, 0, 0)
	p.ReleaseBuf()
	return false
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
	r.enqueueFIFO(q, r.state.Load())
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

func (r *Router) enqueueFIFO(p *pkt.Packet, st *ifaceState) bool {
	q := st.outQ[p.OutIf]
	if q == nil {
		r.stats.drops[dropQueue].Add(1)
		p.ReleaseBuf()
		return false
	}
	if err := q.Enqueue(p); err != nil {
		r.stats.drops[dropQueue].Add(1)
		p.ReleaseBuf()
		return false
	}
	r.stats.forwarded.Add(1)
	return true
}

// TxDrain transmits up to budget packets queued for an interface,
// serving plugin schedulers first, then the default FIFO (and, in
// best-effort mode, the hard-wired scheduler). It returns the number of
// packets transmitted.
//
//eisr:fastpath
func (r *Router) TxDrain(ifIdx int32, budget int) int {
	st := r.state.Load()
	ifc := st.ifaces[ifIdx]
	q := st.outQ[ifIdx]
	drainers := st.drainers[ifIdx] // immutable snapshot slice
	if ifc == nil {
		return 0
	}
	sent := 0
	for sent < budget {
		var p *pkt.Packet
		for _, d := range drainers {
			if p = d.Drain(); p != nil {
				break
			}
		}
		if p == nil && r.mode == ModeBestEffort && r.cfg.MonoSched != nil {
			if candidate := r.cfg.MonoSched.Dequeue(); candidate != nil && candidate.OutIf == ifIdx {
				p = candidate
			} else if candidate != nil {
				// Mis-targeted packet (single shared mono scheduler):
				// transmit on its own interface.
				r.transmit(candidate, st)
				sent++
				continue
			}
		}
		if p == nil && q != nil {
			p = q.Dequeue()
		}
		if p == nil {
			break
		}
		r.transmit(p, st)
		sent++
	}
	return sent
}

// transmit puts one packet on the wire via the caller's snapshot: a
// whole TxDrain batch transmits against one interface-table generation.
func (r *Router) transmit(p *pkt.Packet, st *ifaceState) {
	ifc := st.ifaces[p.OutIf]
	if ifc == nil {
		p.ReleaseBuf()
		return
	}
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
				p.ReleaseBuf()
				return
			}
		}
		r.stats.drops[dropMTU].Add(1)
		r.sendICMPError(p, pkt.ICMPv4DestUnreach, pkt.ICMPv6PacketTooBig, 4, 0)
		p.ReleaseBuf()
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

// Step polls every interface once, forwarding what arrived and draining
// outputs; returns the number of packets forwarded. Run loops use it.
func (r *Router) Step() int {
	st := r.state.Load()
	n := 0
	for _, ifc := range st.list {
		for {
			p := ifc.Poll()
			if p == nil {
				break
			}
			if r.Forward(p) {
				n++
			}
		}
	}
	for _, ifc := range st.list {
		r.TxDrain(ifc.Index, 64)
	}
	return n
}

// stepSubmit is the parallel-engine variant of Step's ingress half: it
// polls every interface and hands each packet to the worker pool, which
// steers it by flow hash. Output draining stays on the run loop — the
// per-interface queues serialize on the link anyway, and a single
// drainer keeps transmit ordering deterministic.
func (r *Router) stepSubmit() int {
	st := r.state.Load()
	n := 0
	for _, ifc := range st.list {
		for {
			p := ifc.Poll()
			if p == nil {
				break
			}
			if !r.pool.Submit(p) {
				// The steered worker's queue is full and the packet was
				// shed: charge the receiving interface and return the
				// mbuf to its pool — Submit already counted the drop
				// router-wide, but without the release sustained
				// overload would bleed the interface's buffer pool dry.
				ifc.CountRxOverload()
				p.ReleaseBuf()
			}
			n++
		}
	}
	return n
}

// Run processes packets until done closes. With Config.Workers > 1 it
// runs the parallel engine: ingress packets are steered to the worker
// pool by flow hash (per-flow ordering preserved), while this loop
// drains outputs and collects deferred plugin reclamation.
func (r *Router) Run(done <-chan struct{}) {
	if r.pool != nil {
		r.runParallel(done)
		return
	}
	for {
		select {
		case <-done:
			return
		default:
		}
		if r.Step() == 0 {
			// Idle: yield briefly rather than spin hot.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// runParallel is Run's worker-pool flavor.
func (r *Router) runParallel(done <-chan struct{}) {
	r.pool.Start()
	defer r.pool.Stop()
	for {
		select {
		case <-done:
			return
		default:
		}
		submitted := r.stepSubmit()
		drained := 0
		st := r.state.Load()
		for _, ifc := range st.list {
			drained += r.TxDrain(ifc.Index, 64)
		}
		if rc := r.pool.Reclaimer(); rc != nil {
			rc.Collect()
		}
		if submitted == 0 && drained == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
}
