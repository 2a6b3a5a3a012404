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
// instead of the in-memory peer. Every arrival — Inject, the in-memory
// peer, the wire — takes the one Receive path into the one mbuf pool.
package netdev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
// the forwarding worker — when the driver's TX ring is full it returns
// ErrRingFull immediately, and Transmit counts the drop. RX is
// push-based: the driver hands each received datagram to the
// interface's Receive from its own goroutine(s) between Start and Stop.
type Driver interface {
	// Start launches the driver's RX/TX goroutines. Idempotent.
	Start()
	// Stop closes the wire and joins the driver goroutines. Idempotent.
	Stop()
	// TransmitWire queues one egress datagram on the wire. It must not
	// block: ErrRingFull signals backpressure, ErrTooBig a datagram the
	// wire cannot carry, and the caller counts either as a TX drop.
	TransmitWire(p *pkt.Packet) error
}

// LinkStats snapshots a wire driver's counters: only the events the
// wire alone sees. What a datagram meets once it reaches the interface
// (received, ring full, too big, malformed, TX ring full) is counted
// once, in the interface's Stats.
type LinkStats struct {
	RxDropBadPath  uint64  `json:"rx_drop_bad_path"` // path-trace encapsulation failed to decode
	RxDropRcvbuf   uint64  `json:"rx_drop_rcvbuf"`   // the kernel dropped: the socket receive buffer was full
	RxErrTransient uint64  `json:"rx_err_transient"` // transient socket read errors (skipped, not fatal)
	TxPackets      uint64  `json:"tx_packets"`       // datagrams written to the socket
	TxBytes        uint64  `json:"tx_bytes"`
	TxErrors       uint64  `json:"tx_errors"`    // socket write failures
	Batches        uint64  `json:"rx_batches"`   // RX wakeups (one batched drain each)
	AvgBatch       float64 `json:"rx_avg_batch"` // mean datagrams per RX batch
	TxBatches      uint64  `json:"tx_batches"`   // TX wakeups (one batched drain each)
	AvgTxBatch     float64 `json:"tx_avg_batch"` // mean datagrams per TX drain
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
type Interface struct {
	Index int32
	Name  string
	MTU   int

	mu     sync.Mutex
	up     bool
	rx     chan *pkt.Packet
	peer   *Interface
	driver Driver

	stats ifStats

	// The receive mbuf pool. An mbuf is a whole packet: the pkt.Packet
	// header with its MTU-sized buffer attached. Receive takes one off
	// the free list, copies the wire bytes into its buffer — exactly
	// like a DMA engine filling a preallocated mbuf — resets the header
	// in place and stamps its Owner, so whoever retires the packet
	// (transmit, drop, shed) returns it whole with ReleaseMbuf.
	// mbufFree is the LIFO free list; mbufMade counts mbufs created so
	// far, capped at BufDepth (RX ring plus any reserve declared with
	// ReserveMbufs: with a worker pool, a packet can sit in a worker's
	// ingress queue long after it left the RX ring, so the reserve must
	// cover the total worker queue depth). When the pool is exhausted —
	// more packets in flight than the declared depth, the signature of
	// a missing release upstream — nextMbuf degrades to a counted heap
	// allocation instead of reusing a packet still in flight.
	mbufFree  []*pkt.Packet
	mbufMade  int
	mbufExtra int

	// Addr is the interface's own address (used by daemons and for
	// locally destined traffic).
	Addr pkt.Addr

	// clock supplies receive timestamps; overridable for tests.
	clock func() time.Time
}

// Config parameterizes NewInterface.
type Config struct {
	Name   string
	MTU    int // defaults to DefaultMTU
	RxRing int // defaults to 512 descriptors
	Addr   pkt.Addr
	Clock  func() time.Time
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
		cfg.Clock = time.Now
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("sim%d", index)
	}
	return &Interface{
		Index: index, Name: name, MTU: cfg.MTU,
		up: true, rx: make(chan *pkt.Packet, cfg.RxRing),
		Addr: cfg.Addr, clock: cfg.Clock,
	}
}

// SetUp raises or lowers the interface.
func (i *Interface) SetUp(up bool) {
	i.mu.Lock()
	i.up = up
	i.mu.Unlock()
}

// AttachDriver backs the interface with a wire driver. The driver is
// not started; the router facade starts and stops attached drivers from
// Start/Stop so sockets open and close with the forwarding loop.
func (i *Interface) AttachDriver(d Driver) {
	i.mu.Lock()
	i.driver = d
	i.mu.Unlock()
}

// Driver returns the attached wire driver, or nil.
func (i *Interface) Driver() Driver {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.driver
}

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
func Connect(a, b *Interface) {
	a.mu.Lock()
	a.peer = b
	a.mu.Unlock()
	b.mu.Lock()
	b.peer = a
	b.mu.Unlock()
}

// Inject delivers raw datagram bytes into the interface's RX ring as if
// they arrived from the wire — the traffic generator's entry point. It
// is Receive without a path-trace context.
func (i *Interface) Inject(data []byte) error { return i.Receive(data, nil) }

// Receive is the interface's one receive path: Inject, the in-memory
// peer hop in Transmit and wire drivers all deliver through it. Like a
// real driver it takes a packet (the mbuf) from the pool and copies the
// datagram into it, then parses the headers and timestamps the packet;
// the caller's slice is not retained. An active path-trace context
// rides along, without the sending router's local accumulation state.
// Every outcome is counted here, once: received, or dropped as down,
// too big, malformed or ring full. In steady state, with every packet
// released by whoever retires it, Receive allocates nothing.
func (i *Interface) Receive(data []byte, path *pkt.PathContext) error {
	i.mu.Lock()
	up := i.up
	i.mu.Unlock()
	if !up {
		i.stats.rxDrops[pkt.DropDown].Add(1)
		return ErrDown
	}
	if len(data) > i.MTU {
		i.stats.rxDrops[pkt.DropTooBig].Add(1)
		return ErrTooBig
	}
	p := i.nextMbuf(len(data))
	copy(p.Data, data)
	if err := p.Reset(p.Data, i.Index); err != nil {
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
	select {
	case i.rx <- p:
		i.stats.rxPackets.Add(1)
		i.stats.rxBytes.Add(uint64(len(data)))
		return nil
	default:
		p.ReleaseBuf()
		i.stats.rxDrops[pkt.DropRingFull].Add(1)
		return ErrRingFull
	}
}

// ReserveMbufs extends the receive buffer pool beyond the RX ring by
// extra buffers. The core calls this when a worker pool is configured:
// a packet steered to a worker can sit in that worker's ingress queue
// while the RX ring keeps turning over, so the pool must cover ring
// depth plus the total worker queue depth. Control path only; buffers
// allocate lazily so the larger depth costs nothing until used.
func (i *Interface) ReserveMbufs(extra int) {
	if extra < 0 {
		extra = 0
	}
	i.mu.Lock()
	if extra > i.mbufExtra {
		i.mbufExtra = extra
	}
	i.mu.Unlock()
}

// BufDepth reports the receive mbuf pool depth: the number of packets
// that can be in flight (RX ring, worker queues, output queues) before
// allocation falls back to the heap.
func (i *Interface) BufDepth() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return cap(i.rx) + i.mbufExtra + 1
}

// depthLocked is BufDepth with i.mu already held.
func (i *Interface) depthLocked() int { return cap(i.rx) + i.mbufExtra + 1 }

// nextMbuf hands out a receive packet whose Data holds n bytes of an
// MTU-sized buffer: recycled from the free list, created lazily up to
// the pool depth, or — pool exhausted — a counted heap fallback
// (graceful degradation, never a packet still in flight). The header is
// stale; the caller resets it.
func (i *Interface) nextMbuf(n int) *pkt.Packet {
	i.mu.Lock()
	if l := len(i.mbufFree); l > 0 {
		p := i.mbufFree[l-1]
		i.mbufFree[l-1] = nil
		i.mbufFree = i.mbufFree[:l-1]
		i.mu.Unlock()
		p.Data = p.Data[:n]
		return p
	}
	if i.mbufMade < i.depthLocked() {
		i.mbufMade++
		i.mu.Unlock()
		return &pkt.Packet{Data: make([]byte, n, i.MTU)}
	}
	i.mu.Unlock()
	i.stats.mbufFallback.Add(1)
	return &pkt.Packet{Data: make([]byte, n, i.MTU)}
}

// ReleaseMbuf implements pkt.BufOwner: the holder retiring a packet
// returns it, header and buffer, for recycling; from here on the pool
// owns p and the next Receive may reuse it. A packet whose Data was
// resliced or replaced (decapsulation, plugins swapping in their own
// buffer) no longer reaches back to a full pool buffer and is left to
// the garbage collector; the free list is capped at the pool depth so
// released fallback packets cannot grow it without bound.
func (i *Interface) ReleaseMbuf(p *pkt.Packet) {
	if cap(p.Data) < i.MTU {
		return
	}
	i.mu.Lock()
	if len(i.mbufFree) < i.depthLocked() {
		i.mbufFree = append(i.mbufFree, p)
	}
	i.mu.Unlock()
}

// Poll drains one packet from the RX ring without blocking; nil when the
// ring is empty.
//
//eisr:fastpath
func (i *Interface) Poll() *pkt.Packet {
	select {
	case p := <-i.rx:
		return p
	default:
		return nil
	}
}

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
// the call: drivers copy into their own wire buffers synchronously
// (the TransmitWire contract) and the in-memory peer's Receive copies
// into a packet from the peer's own mbuf pool.
func (i *Interface) Transmit(p *pkt.Packet) error {
	defer p.ReleaseBuf()
	i.mu.Lock()
	up, peer, driver := i.up, i.peer, i.driver
	i.mu.Unlock()
	if !up {
		i.stats.txDrops[pkt.DropDown].Add(1)
		return ErrDown
	}
	if len(p.Data) > i.MTU {
		i.stats.txDrops[pkt.DropTooBig].Add(1)
		return ErrTooBig
	}
	if driver != nil {
		if err := driver.TransmitWire(p); err != nil {
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
	if peer != nil {
		// The peer receives like it would from a wire, and counts
		// whatever it refuses as its own RX drop.
		_ = peer.Receive(p.Data, &p.Path)
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
