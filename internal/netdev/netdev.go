// Package netdev is the network hardware layer underneath the IP core:
// interfaces with receive/transmit rings, link rate and MTU, and
// point-to-point links wiring interfaces of different routers together.
// It stands in for the ATM interfaces of the paper's testbed (MTU 9180);
// the device driver timestamps every incoming packet exactly as the
// paper's instrumented driver does for the Table 3 measurements.
//
// An interface is backed by one of two substrates. Without a Driver it
// is fully simulated: Inject plays the role of the DMA engine and
// Connect wires two interfaces memory-to-memory. With a Driver attached
// (internal/netio provides the UDP overlay driver) the same rings are
// fed by real OS sockets: the driver's RX goroutine hands each received
// datagram to Receive, and Transmit hands egress packets to the driver
// instead of the in-memory peer; the driver writes them on the caller's
// goroutine. Every arrival — Inject, the in-memory
// peer, the wire — takes the one Receive path into the one mbuf pool.
//
// Nothing between Receive and Transmit takes a lock or touches a
// channel. An interface has one RX ring per forwarding worker of the
// core it is attached to (SetQueues), like a NIC's RSS queues: Receive
// steers each packet to the ring of the worker that owns its flow
// (pkt.SteerWorker), and that worker polls it (PollRing). Each ring is
// a bounded lock-free ring that any goroutine may push to and poll, and
// the mbuf pool is a lock-free LIFO free list over a lazily grown
// table, so any goroutine may take an mbuf (Receive) or return one
// (ReleaseMbuf). An interface's mutex serializes only the control
// path: rewiring and SetQueues.
package netdev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// DefaultMTU matches the paper's ATM configuration.
const DefaultMTU = 9180

// Errors reported by devices.
var (
	ErrRingFull = errors.New("netdev: ring full")
	ErrTooBig   = errors.New("netdev: packet exceeds MTU")
	ErrDown     = errors.New("netdev: interface down")
)

// Driver backs an interface with a real transport (a "wire"). The
// contract mirrors a kernel NIC driver: TransmitWire must never block
// the forwarding worker — when the wire cannot take a datagram now it
// returns ErrRingFull immediately, and Transmit counts the drop. RX is
// push-based: the driver hands each received datagram to the
// interface's Receive from its own goroutine(s) between Start and Stop.
type Driver interface {
	// Start launches the driver's RX goroutine(s). Idempotent.
	Start()
	// Stop closes the wire and joins the driver goroutines. Idempotent.
	Stop()
	// TransmitWire writes one egress datagram to the wire on the
	// caller's goroutine and keeps no reference to p or its Data once
	// it returns. It must not block: ErrRingFull signals backpressure,
	// ErrTooBig a datagram the wire cannot carry, and the caller counts
	// either as a TX drop.
	TransmitWire(p *pkt.Packet) error
}

// LinkStats snapshots a wire driver's counters: only the events the
// wire alone sees. What a datagram meets once it reaches the interface
// (received, ring full, too big, malformed, TX ring full) is counted
// once, in the interface's Stats.
type LinkStats struct {
	RxDropBadPath  uint64 `json:"rx_drop_bad_path"` // path-trace encapsulation failed to decode
	RxDropRcvbuf   uint64 `json:"rx_drop_rcvbuf"`   // the kernel dropped: the socket receive buffer was full
	RxErrTransient uint64 `json:"rx_err_transient"` // transient socket read errors (skipped, not fatal)
	TxPackets      uint64 `json:"tx_packets"`       // datagrams written to the socket
	TxBytes        uint64 `json:"tx_bytes"`
	TxErrors       uint64 `json:"tx_errors"` // socket write failures, and datagrams with no peer
}

// LinkInfo describes a wire-backed interface for operator tooling (the
// "pmgr links" payload).
type LinkInfo struct {
	Iface   int32  `json:"iface"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Local   string `json:"local"`
	Peer    string `json:"peer"`
	Running bool   `json:"running"`
	// RcvbufRequested is the socket receive buffer the link asked the
	// kernel for; RcvbufGranted is what the kernel reports it holds
	// (0 where the platform cannot say).
	RcvbufRequested int       `json:"rcvbuf_requested"`
	RcvbufGranted   int       `json:"rcvbuf_granted"`
	Stats           LinkStats `json:"stats"`
}

// LinkReporter is implemented by drivers that can describe their link.
type LinkReporter interface {
	LinkInfo() LinkInfo
}

// Stats counts per-interface packet events. The drop fields are views
// over the interface's drop cells: the totals, and the totals broken
// down by reason so overruns are distinguishable from policy drops.
type Stats struct {
	RxPackets uint64
	RxBytes   uint64
	RxDrops   uint64
	TxPackets uint64
	TxBytes   uint64
	TxDrops   uint64

	// RX drop reasons (sum to RxDrops).
	RxDropRing      uint64
	RxDropTooBig    uint64
	RxDropDown      uint64
	RxDropMalformed uint64
	// TX drop reasons (sum to TxDrops).
	TxDropRing   uint64
	TxDropTooBig uint64
	TxDropDown   uint64

	// MbufFallback counts receive-buffer allocations made after the
	// mbuf pool was exhausted (more packets in flight than the declared
	// BufDepth — the signature of a release leak upstream). Not a drop:
	// the packet is still delivered, on a heap buffer.
	MbufFallback uint64
}

// ifStats is the live counter set: lock-free atomics so the per-packet
// paths (Receive, Transmit — including the driver RX goroutine racing
// the forwarding workers) never serialize on a mutex.
// It is the only record of these events: Stats snapshots it and the
// metrics registry reads it (SetTelemetry). rxDrops and txDrops hold one
// cell per drop reason; only the reasons in rxReasons and txReasons are
// ever counted.
type ifStats struct {
	rxPackets atomic.Uint64
	rxBytes   atomic.Uint64
	txPackets atomic.Uint64
	txBytes   atomic.Uint64

	rxDrops [pkt.NumDropReasons]atomic.Uint64
	txDrops [pkt.NumDropReasons]atomic.Uint64

	mbufFallback atomic.Uint64
}

// The reasons an interface loses a packet, per direction.
var (
	rxReasons = []pkt.DropReason{pkt.DropDown, pkt.DropTooBig, pkt.DropMalformed, pkt.DropRingFull}
	txReasons = []pkt.DropReason{pkt.DropDown, pkt.DropTooBig, pkt.DropRingFull}
)

// Interface is one network interface. Packets received from the
// attached link (or wire driver) are queued on the RX ring for the
// router core to drain; packets the core transmits go out on the TX
// path and are delivered to the peer interface or the wire.
//
// The per-packet paths take no lock: up is an atomic, the wiring (peer
// and driver) is an immutable snapshot behind an atomic pointer, loaded
// once per Receive or Transmit, and the RX rings and the mbuf pool are
// lock-free. mu serializes the control path's writes (SetUp aside,
// which is one atomic store).
type Interface struct {
	Index int32
	Name  string
	MTU   int

	mu   sync.Mutex
	up   atomic.Bool
	rx   []rxRing // one per forwarding worker (SetQueues)
	wire atomic.Pointer[wiring]

	stats ifStats

	// The receive mbuf pool. An mbuf is a whole packet: the pkt.Packet
	// header with its MTU-sized buffer attached. Receive takes one from
	// the pool, copies the wire bytes into its buffer — exactly like a
	// DMA engine filling a preallocated mbuf — resets the header in
	// place and stamps its Owner, so whoever retires the packet
	// (transmit, drop) returns it whole with ReleaseMbuf. The pool makes
	// at most BufDepth mbufs: every RX ring, plus the vector each worker
	// holds after polling it (SetQueues). When the pool is exhausted — more packets in flight than the declared depth, the
	// signature of a missing release upstream — nextMbuf degrades to a
	// counted heap allocation instead of reusing a packet still in
	// flight.
	mbufs mbufPool

	// Addr is the interface's own address (used by daemons and for
	// locally destined traffic).
	Addr pkt.Addr

	// clock supplies receive timestamps; overridable for tests.
	clock func() int64
}

// wiring is what an interface transmits into: the in-memory peer and
// the wire driver. A value is never modified once published; Connect
// and AttachDriver publish a fresh one.
type wiring struct {
	peer   *Interface
	driver Driver
}

// Config parameterizes NewInterface.
type Config struct {
	Name   string
	MTU    int // defaults to DefaultMTU
	RxRing int // defaults to 512 descriptors
	Addr   pkt.Addr
	// Clock supplies receive timestamps in pkt.Nanotime nanoseconds;
	// defaults to pkt.Nanotime.
	Clock func() int64
}

// NewInterface builds an administratively-up interface.
func NewInterface(index int32, cfg Config) *Interface {
	if cfg.MTU == 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.RxRing == 0 {
		cfg.RxRing = 512
	}
	if cfg.Clock == nil {
		cfg.Clock = pkt.Nanotime
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("sim%d", index)
	}
	i := &Interface{
		Index: index, Name: name, MTU: cfg.MTU,
		Addr: cfg.Addr, clock: cfg.Clock,
	}
	i.rx = make([]rxRing, 1)
	i.rx[0].init(cfg.RxRing)
	i.mbufs.depth.Store(uint32(cfg.RxRing) + 1)
	i.up.Store(true)
	i.wire.Store(&wiring{})
	return i
}

// SetUp raises or lowers the interface.
func (i *Interface) SetUp(up bool) { i.up.Store(up) }

// rewire publishes a copy of the interface's wiring with change applied.
// Writers serialize on mu; readers load the snapshot without it.
func (i *Interface) rewire(change func(w *wiring)) {
	i.mu.Lock()
	w := *i.wire.Load()
	change(&w)
	i.wire.Store(&w)
	i.mu.Unlock()
}

// AttachDriver backs the interface with a wire driver. The driver is
// not started; the router facade starts and stops attached drivers from
// Start/Stop so sockets open and close with the forwarding loop.
func (i *Interface) AttachDriver(d Driver) {
	i.rewire(func(w *wiring) { w.driver = d })
}

// Driver returns the attached wire driver, or nil.
func (i *Interface) Driver() Driver { return i.wire.Load().driver }

// SetTelemetry exports the interface's counters on a metrics registry
// (Prometheus exposition): the registry reads the interface's own
// cells, so every event counted in Stats is in the export too. Nil-safe.
func (i *Interface) SetTelemetry(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	l := telemetry.Label{Key: "iface", Value: i.Name}
	dir := func(d string) telemetry.Label { return telemetry.Label{Key: "dir", Value: d} }
	s := &i.stats
	t.CounterFunc("eisr_netdev_packets_total", "packets per interface and direction", s.rxPackets.Load, l, dir("rx"))
	t.CounterFunc("eisr_netdev_packets_total", "packets per interface and direction", s.txPackets.Load, l, dir("tx"))
	t.CounterFunc("eisr_netdev_bytes_total", "bytes per interface and direction", s.rxBytes.Load, l, dir("rx"))
	t.CounterFunc("eisr_netdev_bytes_total", "bytes per interface and direction", s.txBytes.Load, l, dir("tx"))

	t.Drops("netdev", func(why pkt.DropReason) uint64 { return s.rxDrops[why].Load() }, []telemetry.Label{l, dir("rx")}, rxReasons...)
	t.Drops("netdev", func(why pkt.DropReason) uint64 { return s.txDrops[why].Load() }, []telemetry.Label{l, dir("tx")}, txReasons...)

	t.CounterFunc("eisr_netdev_mbuf_fallback_total", "receive buffers heap-allocated after pool exhaustion", s.mbufFallback.Load, l)
}

// Connect wires two interfaces as a point-to-point link (both ways).
// Each end publishes its own wiring value.
func Connect(a, b *Interface) {
	a.rewire(func(w *wiring) { w.peer = b })
	b.rewire(func(w *wiring) { w.peer = a })
}

// Inject delivers raw datagram bytes into the interface's RX ring as if
// they arrived from the wire — the traffic generator's entry point. It
// is Receive without a path-trace context.
func (i *Interface) Inject(data []byte) error { return i.Receive(data, nil) }

// Receive is the interface's one receive path: Inject, the in-memory
// peer hop in Transmit and wire drivers all deliver through it. Like a
// real driver it takes a packet (the mbuf) from the pool and copies the
// datagram into it, then parses the headers in one pass (pkt.Reset),
// stamps the packet with one monotonic clock read and pushes it on the
// RX ring of the worker that owns its flow; the caller's slice is not
// retained. It takes no lock and touches no channel, so any
// goroutine may call it. An active path-trace context rides along,
// without the sending router's local accumulation state.
// Every outcome is counted here, once: received, or dropped as down,
// too big, malformed or ring full. In steady state, with every packet
// released by whoever retires it, Receive allocates nothing.
func (i *Interface) Receive(data []byte, path *pkt.PathContext) error {
	if !i.up.Load() {
		i.stats.rxDrops[pkt.DropDown].Add(1)
		return ErrDown
	}
	if len(data) > i.MTU {
		i.stats.rxDrops[pkt.DropTooBig].Add(1)
		return ErrTooBig
	}
	p := i.nextMbuf(len(data))
	copy(p.Data, data)
	slot := p.Mbuf
	err := p.Reset(p.Data, i.Index)
	p.Mbuf = slot
	if err != nil {
		i.ReleaseMbuf(p)
		i.stats.rxDrops[pkt.DropMalformed].Add(1)
		return err
	}
	if path != nil && path.Active {
		p.Path = *path
		p.Path.LocalGates, p.Path.StampedHere = 0, false
	}
	p.Owner = i
	p.Stamp = i.clock()
	if !i.rx[pkt.SteerWorker(p.Hash, len(i.rx))].push(p) {
		p.ReleaseBuf()
		i.stats.rxDrops[pkt.DropRingFull].Add(1)
		return ErrRingFull
	}
	i.stats.rxPackets.Add(1)
	i.stats.rxBytes.Add(uint64(len(data)))
	return nil
}

// SetQueues gives the interface one RX ring per forwarding worker, n
// of them, each as deep as the configured ring, and sizes the mbuf pool
// to cover every ring plus the vector of up to vector packets each
// worker holds after polling its ring. The router core calls it once,
// as it attaches the interface, before any other goroutine can reach
// the interface: the ring count is read without a lock on every Receive
// and Poll. Packets received before then move to their workers' rings.
// The depth never shrinks: a pool already in use keeps its slots.
// A second ring is only made for a second worker, and mbufs allocate
// lazily, so the depth costs nothing until packets are in flight.
func (i *Interface) SetQueues(n, vector int) {
	n = max(n, 1)
	i.mu.Lock()
	defer i.mu.Unlock()
	depth := i.rx[0].depth
	if n != len(i.rx) {
		old := i.rx
		i.rx = make([]rxRing, n)
		for q := range i.rx {
			i.rx[q].init(int(depth))
		}
		for q := range old {
			for p := old[q].pop(); p != nil; p = old[q].pop() {
				i.rx[pkt.SteerWorker(p.Hash, n)].push(p)
			}
		}
	}
	i.mbufs.depth.Store(max(i.mbufs.depth.Load(), uint32(n)*(depth+uint32(vector))+1))
}

// Queues reports the interface's RX ring count: one per forwarding
// worker of the core it is attached to.
func (i *Interface) Queues() int { return len(i.rx) }

// BufDepth reports the receive mbuf pool depth: the number of packets
// that can be in flight (RX rings, worker vectors, output queues) before
// allocation falls back to the heap.
func (i *Interface) BufDepth() int { return int(i.mbufs.depth.Load()) }

// nextMbuf hands out a receive packet whose Data holds n bytes of an
// MTU-sized buffer: recycled from the free list, created lazily up to
// the pool depth, or — pool exhausted — a counted heap fallback
// (graceful degradation, never a packet still in flight). The header is
// stale but for its Mbuf slot; the caller resets it.
func (i *Interface) nextMbuf(n int) *pkt.Packet {
	p := i.mbufs.get(i.MTU)
	if p == nil {
		i.stats.mbufFallback.Add(1)
		p = &pkt.Packet{Data: make([]byte, 0, i.MTU)}
	}
	p.Data = p.Data[:n]
	return p
}

// ReleaseMbuf implements pkt.BufOwner: the holder retiring a packet
// returns it, header and buffer, for recycling; from here on the pool
// owns p and the next Receive may reuse it. A packet whose Data was
// resliced or replaced (decapsulation, plugins swapping in their own
// buffer) no longer reaches back to a full pool buffer: it is left to
// the garbage collector and its slot returns empty, to be remade with a
// fresh buffer when next taken. A released heap fallback is left to the
// collector too: only the pool's own slots go back on the free list, so
// it never holds more than the pool depth. Any goroutine may release;
// it takes no lock.
func (i *Interface) ReleaseMbuf(p *pkt.Packet) { i.mbufs.put(p, i.MTU) }

// Poll drains one packet from the first non-empty RX ring without
// blocking; nil when every ring is empty. Any goroutine may poll; it
// takes no lock.
//
//eisr:fastpath
func (i *Interface) Poll() *pkt.Packet {
	for q := range i.rx {
		if p := i.rx[q].pop(); p != nil {
			return p
		}
	}
	return nil
}

// PollRing drains one packet from RX ring q (0 ≤ q < Queues()) without
// blocking; nil when that ring is empty. Worker q of the core polls it.
//
//eisr:fastpath
func (i *Interface) PollRing(q int) *pkt.Packet { return i.rx[q].pop() }

// Transmit sends a packet out this interface: it is accounted and then
// handed to the wire driver if one is attached, else delivered into the
// connected peer's RX ring. Without a driver or peer the packet is
// counted and discarded (a sink, as in the benchmark harness where the
// ATM card loops to the measurement host). A driver that refuses the
// packet turns it into a counted TX drop — too big on ErrTooBig, ring
// full on backpressure (ErrRingFull) or any other error — so the
// forwarding worker is never blocked on the wire.
//
// Transmit consumes the packet's receive buffer on every arm — wire,
// peer, sink, and the drop paths alike — returning it to its pool
// before returning. This is safe because no arm retains p.Data past
// the call: drivers write it to the wire synchronously (the
// TransmitWire contract) and the in-memory peer's Receive copies into a
// packet from the peer's own mbuf pool.
func (i *Interface) Transmit(p *pkt.Packet) error {
	defer p.ReleaseBuf()
	if !i.up.Load() {
		i.stats.txDrops[pkt.DropDown].Add(1)
		return ErrDown
	}
	if len(p.Data) > i.MTU {
		i.stats.txDrops[pkt.DropTooBig].Add(1)
		return ErrTooBig
	}
	w := i.wire.Load()
	if w.driver != nil {
		if err := w.driver.TransmitWire(p); err != nil {
			why := pkt.DropRingFull
			if err == ErrTooBig {
				why = pkt.DropTooBig
			}
			i.stats.txDrops[why].Add(1)
			return err
		}
		i.stats.txPackets.Add(1)
		i.stats.txBytes.Add(uint64(len(p.Data)))
		return nil
	}
	i.stats.txPackets.Add(1)
	i.stats.txBytes.Add(uint64(len(p.Data)))
	if w.peer != nil {
		// The peer receives like it would from a wire, and counts
		// whatever it refuses as its own RX drop.
		_ = w.peer.Receive(p.Data, &p.Path)
	}
	return nil
}

// Stats snapshots the interface counters.
func (i *Interface) Stats() Stats {
	rx, tx := &i.stats.rxDrops, &i.stats.txDrops
	s := Stats{
		RxPackets: i.stats.rxPackets.Load(),
		RxBytes:   i.stats.rxBytes.Load(),
		TxPackets: i.stats.txPackets.Load(),
		TxBytes:   i.stats.txBytes.Load(),

		RxDropRing:      rx[pkt.DropRingFull].Load(),
		RxDropTooBig:    rx[pkt.DropTooBig].Load(),
		RxDropDown:      rx[pkt.DropDown].Load(),
		RxDropMalformed: rx[pkt.DropMalformed].Load(),
		TxDropRing:      tx[pkt.DropRingFull].Load(),
		TxDropTooBig:    tx[pkt.DropTooBig].Load(),
		TxDropDown:      tx[pkt.DropDown].Load(),

		MbufFallback: i.stats.mbufFallback.Load(),
	}
	s.RxDrops = s.RxDropRing + s.RxDropTooBig + s.RxDropDown + s.RxDropMalformed
	s.TxDrops = s.TxDropRing + s.TxDropTooBig + s.TxDropDown
	return s
}
