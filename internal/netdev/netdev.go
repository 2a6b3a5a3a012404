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
// fed by real OS sockets: the driver's RX goroutine pushes received
// packets into the RX ring via InjectPacket, and Transmit hands egress
// packets to the driver instead of the in-memory peer.
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
// the forwarding worker — when the driver's TX ring is full it counts
// the drop and returns ErrRingFull immediately. RX is push-based: the
// driver delivers received packets into the interface's ring with
// InjectPacket from its own goroutine(s) between Start and Stop.
type Driver interface {
	// Start launches the driver's RX/TX goroutines. Idempotent.
	Start()
	// Stop closes the wire and joins the driver goroutines. Idempotent.
	Stop()
	// TransmitWire queues one egress datagram on the wire. It must not
	// block: ErrRingFull signals backpressure and the caller counts the
	// packet as a TX drop.
	TransmitWire(p *pkt.Packet) error
}

// LinkStats snapshots a wire driver's counters.
type LinkStats struct {
	RxPackets       uint64  `json:"rx_packets"`
	RxBytes         uint64  `json:"rx_bytes"`
	RxDropRing      uint64  `json:"rx_drop_ring"`      // RX ring full at delivery
	RxDropTooBig    uint64  `json:"rx_drop_too_big"`   // datagram exceeded the MTU
	RxDropMalformed uint64  `json:"rx_drop_malformed"` // sum of the bad-path and bad-key arms
	RxDropBadPath   uint64  `json:"rx_drop_bad_path"`  // path-trace encapsulation failed to decode
	RxDropBadKey    uint64  `json:"rx_drop_bad_key"`   // flow-key extraction failed
	RxErrTransient  uint64  `json:"rx_err_transient"`  // transient socket read errors (skipped, not fatal)
	TxPackets       uint64  `json:"tx_packets"`
	TxBytes         uint64  `json:"tx_bytes"`
	TxDropRing      uint64  `json:"tx_drop_ring"` // TX ring full at enqueue
	TxErrors        uint64  `json:"tx_errors"`    // socket write failures
	Batches         uint64  `json:"rx_batches"`   // RX wakeups (one batched drain each)
	AvgBatch        float64 `json:"rx_avg_batch"` // mean packets per RX batch
	TxBatches       uint64  `json:"tx_batches"`   // TX wakeups (one batched drain each)
	AvgTxBatch      float64 `json:"tx_avg_batch"` // mean packets per TX drain
}

// LinkInfo describes a wire-backed interface for operator tooling (the
// "pmgr links" payload).
type LinkInfo struct {
	Iface   int32     `json:"iface"`
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Local   string    `json:"local"`
	Peer    string    `json:"peer"`
	Running bool      `json:"running"`
	Stats   LinkStats `json:"stats"`
}

// LinkReporter is implemented by drivers that can describe their link.
type LinkReporter interface {
	LinkInfo() LinkInfo
}

// Stats counts per-interface packet events. The drop totals are broken
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
	RxDropOverload  uint64 // shed by the forwarding engine (worker queue full)
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
// paths (Inject, InjectPacket, Transmit — including the driver RX
// goroutine racing the forwarding workers) never serialize on a mutex.
// It is the only record of these events: Stats snapshots it and the
// metrics registry reads it (SetTelemetry).
type ifStats struct {
	rxPackets atomic.Uint64
	rxBytes   atomic.Uint64
	txPackets atomic.Uint64
	txBytes   atomic.Uint64

	rxDropRing      atomic.Uint64
	rxDropTooBig    atomic.Uint64
	rxDropDown      atomic.Uint64
	rxDropMalformed atomic.Uint64
	rxDropOverload  atomic.Uint64
	txDropRing      atomic.Uint64
	txDropTooBig    atomic.Uint64
	txDropDown      atomic.Uint64

	mbufFallback atomic.Uint64
}

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
	// header with its MTU-sized buffer attached. Inject takes one off
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

// Up reports administrative state.
func (i *Interface) Up() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.up
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
	reason := func(why string) telemetry.Label { return telemetry.Label{Key: "reason", Value: why} }
	s := &i.stats
	t.CounterFunc("eisr_netdev_packets_total", "packets per interface and direction", s.rxPackets.Load, l, dir("rx"))
	t.CounterFunc("eisr_netdev_packets_total", "packets per interface and direction", s.txPackets.Load, l, dir("tx"))
	t.CounterFunc("eisr_netdev_bytes_total", "bytes per interface and direction", s.rxBytes.Load, l, dir("rx"))
	t.CounterFunc("eisr_netdev_bytes_total", "bytes per interface and direction", s.txBytes.Load, l, dir("tx"))

	const drops = "interface drops by direction and reason"
	t.CounterFunc("eisr_netdev_drops_total", drops, s.rxDropRing.Load, l, dir("rx"), reason("ring-full"))
	t.CounterFunc("eisr_netdev_drops_total", drops, s.rxDropTooBig.Load, l, dir("rx"), reason("too-big"))
	t.CounterFunc("eisr_netdev_drops_total", drops, s.rxDropDown.Load, l, dir("rx"), reason("down"))
	t.CounterFunc("eisr_netdev_drops_total", drops, s.rxDropMalformed.Load, l, dir("rx"), reason("malformed"))
	t.CounterFunc("eisr_netdev_drops_total", drops, s.rxDropOverload.Load, l, dir("rx"), reason("overload"))
	t.CounterFunc("eisr_netdev_drops_total", drops, s.txDropRing.Load, l, dir("tx"), reason("ring-full"))
	t.CounterFunc("eisr_netdev_drops_total", drops, s.txDropTooBig.Load, l, dir("tx"), reason("too-big"))
	t.CounterFunc("eisr_netdev_drops_total", drops, s.txDropDown.Load, l, dir("tx"), reason("down"))

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
// they arrived from the wire — the traffic generator's entry point. Like
// a real driver it takes a packet (the mbuf) from its pool and copies
// the wire bytes into it, then parses the headers and timestamps the
// packet; the caller's slice is not retained. In steady state, with
// every packet released by whoever retires it, Inject allocates
// nothing.
func (i *Interface) Inject(data []byte) error {
	i.mu.Lock()
	up := i.up
	i.mu.Unlock()
	if !up {
		i.stats.rxDropDown.Add(1)
		return ErrDown
	}
	if len(data) > i.MTU {
		i.stats.rxDropTooBig.Add(1)
		return ErrTooBig
	}
	p := i.nextMbuf(len(data))
	copy(p.Data, data)
	if err := p.Reset(p.Data, i.Index); err != nil {
		i.ReleaseMbuf(p)
		i.stats.rxDropMalformed.Add(1)
		return err
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
		i.stats.rxDropRing.Add(1)
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
// allocation falls back to the heap. Wire drivers size their own pools
// from it.
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
// owns p and the next Inject may reuse it. A packet whose Data was
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

// CountRxOverload records a received packet shed by the forwarding
// engine because its steered worker's ingress queue was full — charged
// against the receiving interface, like any other RX drop.
func (i *Interface) CountRxOverload() {
	i.stats.rxDropOverload.Add(1)
}

// InjectPacket enqueues an already-built packet — the zero-copy,
// allocation-free receive path used by the benchmark harness and by
// wire drivers delivering from their own buffer pools. The caller must
// have set Data and InIf.
//
//eisr:fastpath
func (i *Interface) InjectPacket(p *pkt.Packet) error {
	p.Stamp = i.clock()
	select {
	case i.rx <- p:
		i.stats.rxPackets.Add(1)
		i.stats.rxBytes.Add(uint64(len(p.Data)))
		return nil
	default:
		i.stats.rxDropRing.Add(1)
		return ErrRingFull
	}
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

// Recv blocks until a packet arrives or the done channel closes.
func (i *Interface) Recv(done <-chan struct{}) *pkt.Packet {
	select {
	case p := <-i.rx:
		return p
	case <-done:
		return nil
	}
}

// RxLen reports the RX ring occupancy.
func (i *Interface) RxLen() int { return len(i.rx) }

// Transmit sends a packet out this interface: it is accounted and then
// handed to the wire driver if one is attached, else delivered into the
// connected peer's RX ring. Without a driver or peer the packet is
// counted and discarded (a sink, as in the benchmark harness where the
// ATM card loops to the measurement host). A driver that reports
// backpressure (ErrRingFull) turns into a counted TX drop — the
// forwarding worker is never blocked on the wire.
//
// Transmit consumes the packet's receive buffer on every arm — wire,
// peer, sink, and the drop paths alike — returning it to its pool
// before returning. This is safe because no arm retains p.Data past
// the call: drivers copy into their own wire buffers synchronously
// (the TransmitWire contract) and the in-memory peer path copies into
// a packet from the peer's mbuf pool below.
func (i *Interface) Transmit(p *pkt.Packet) error {
	defer p.ReleaseBuf()
	i.mu.Lock()
	up, peer, driver := i.up, i.peer, i.driver
	i.mu.Unlock()
	if !up {
		i.stats.txDropDown.Add(1)
		return ErrDown
	}
	if len(p.Data) > i.MTU {
		i.stats.txDropTooBig.Add(1)
		return ErrTooBig
	}
	if driver != nil {
		if err := driver.TransmitWire(p); err != nil {
			i.stats.txDropRing.Add(1)
			return err
		}
		i.stats.txPackets.Add(1)
		i.stats.txBytes.Add(uint64(len(p.Data)))
		return nil
	}
	i.stats.txPackets.Add(1)
	i.stats.txBytes.Add(uint64(len(p.Data)))
	if peer != nil {
		if len(p.Data) > peer.MTU {
			peer.stats.rxDropTooBig.Add(1)
			return nil
		}
		// Copy into a packet from the peer's own mbuf pool, like a wire
		// would: the sender's packet recycles the moment Transmit
		// returns, so the peer must not alias it. A datagram whose key
		// does not parse is still delivered, keyless, for the peer's
		// core to count; the TOS is the sender's.
		q := peer.nextMbuf(len(p.Data))
		copy(q.Data, p.Data)
		_ = q.Reset(q.Data, peer.Index)
		q.TOS, q.Path, q.Owner = p.TOS, p.Path, peer
		// The trace context crosses the in-memory link like it crosses
		// the wire: router-local accumulation state does not.
		q.Path.LocalGates, q.Path.StampedHere = 0, false
		q.Stamp = peer.clock()
		select {
		case peer.rx <- q:
			peer.stats.rxPackets.Add(1)
			peer.stats.rxBytes.Add(uint64(len(q.Data)))
		default:
			q.ReleaseBuf()
			peer.stats.rxDropRing.Add(1)
		}
	}
	return nil
}

// Stats snapshots the interface counters.
func (i *Interface) Stats() Stats {
	s := Stats{
		RxPackets: i.stats.rxPackets.Load(),
		RxBytes:   i.stats.rxBytes.Load(),
		TxPackets: i.stats.txPackets.Load(),
		TxBytes:   i.stats.txBytes.Load(),

		RxDropRing:      i.stats.rxDropRing.Load(),
		RxDropTooBig:    i.stats.rxDropTooBig.Load(),
		RxDropDown:      i.stats.rxDropDown.Load(),
		RxDropMalformed: i.stats.rxDropMalformed.Load(),
		RxDropOverload:  i.stats.rxDropOverload.Load(),
		TxDropRing:      i.stats.txDropRing.Load(),
		TxDropTooBig:    i.stats.txDropTooBig.Load(),
		TxDropDown:      i.stats.txDropDown.Load(),

		MbufFallback: i.stats.mbufFallback.Load(),
	}
	s.RxDrops = s.RxDropRing + s.RxDropTooBig + s.RxDropDown + s.RxDropMalformed + s.RxDropOverload
	s.TxDrops = s.TxDropRing + s.TxDropTooBig + s.TxDropDown
	return s
}
