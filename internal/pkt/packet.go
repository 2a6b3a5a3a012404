package pkt

import (
	"fmt"
	"time"
)

// Protocol numbers the classifier and core care about. Values are the
// IANA-assigned IP protocol numbers.
const (
	ProtoHopByHop = 0
	ProtoICMP     = 1
	ProtoTCP      = 6
	ProtoUDP      = 17
	ProtoIPv6ICMP = 58
	ProtoAH       = 51
	ProtoESP      = 50
	ProtoNone     = 59
)

// Key is the fully specified six-tuple that identifies an end-to-end flow:
// <source address, destination address, protocol, source port, destination
// port, incoming interface>. It is the unit the flow table hashes on (the
// paper's flow-table rows are keyed by the same six-tuple as filters, with
// every field fully specified) and the input to filter matching.
//
// Key is comparable, so it can be used directly as a map key in tests and
// reference implementations; the production flow table uses FlowHash.
type Key struct {
	Src     Addr
	Dst     Addr
	Proto   uint8
	SrcPort uint16
	DstPort uint16
	InIf    int32
}

// String renders the tuple for logs and test failures.
func (k Key) String() string {
	return fmt.Sprintf("<%s, %s, %d, %d, %d, if%d>",
		k.Src, k.Dst, k.Proto, k.SrcPort, k.DstPort, k.InIf)
}

// FiveTuple returns the key with the incoming interface cleared: the
// five header fields FlowHash covers (the paper computes the hash from
// <src, dst, proto, sport, dport>).
func (k Key) FiveTuple() Key {
	k.InIf = -1
	return k
}

// Packet is the EISR packet buffer — the analog of the mbuf in the paper's
// NetBSD implementation. It carries the raw datagram, receive metadata,
// the parsed six-tuple, and the flow index (FIX): an opaque reference to
// the flow-table row that the AIU stores into the packet at the first gate
// so that subsequent gates can retrieve their plugin instance with a
// single indirect load instead of a classification.
type Packet struct {
	// Data is the full IP datagram (header plus payload).
	Data []byte

	// InIf is the index of the interface the packet arrived on, or -1
	// for locally generated packets.
	InIf int32

	// OutIf is the index of the interface chosen by the forwarding
	// lookup. It is -1 until routing has run.
	OutIf int32

	// NextHop is the address of the next hop chosen by routing.
	NextHop Addr

	// Key is the parsed six-tuple. Valid once KeyValid is true; the core
	// parses it exactly once per packet on receive.
	Key      Key
	KeyValid bool
	// Hash is FlowHash(Key), computed with it (SetKey): the flow-table
	// shard, bucket and tag, the forwarding worker, path-trace sampling
	// and ALTQ's queue choice all read it instead of hashing again.
	Hash uint64

	// FIX is the flow index: a pointer to the flow-table row for this
	// packet's flow, stored by the AIU when the first gate resolves the
	// flow (cache hit or miss). Gates after the first use it to fetch
	// their bound plugin instance without calling back into the
	// classifier. It is owned by the AIU; other code treats it as
	// opaque. The static type is any to keep the packet buffer free of
	// an AIU dependency, mirroring how the mbuf field in the paper is
	// just a pointer.
	FIX any

	// FIXGen is the generation of the flow-table row at the moment the
	// FIX was stored. Flow records are recycled oldest-first when the
	// table is full, so a FIX can outlive its flow: gates compare this
	// against the record's current generation and reclassify on
	// mismatch instead of dispatching through whatever flow now owns
	// the row. Owned by the AIU, like FIX.
	FIXGen uint64

	// Stamp is the receive timestamp assigned by the device driver, in
	// Nanotime nanoseconds; 0 means unstamped. The Table 3 measurement
	// methodology timestamps packets on RX and compares against the
	// cycle counter just before TX.
	Stamp int64

	// TOS carries the IPv4 TOS / IPv6 traffic class for schedulers that
	// want class hints.
	TOS uint8

	// Drop records that a plugin decided to discard the packet (MarkDrop);
	// the core drops it after the gate as pkt.DropPlugin.
	Drop bool

	// CacheMiss records that this packet took the first-packet
	// classification slow path (no flow-cache entry existed when it
	// arrived). Telemetry uses it to attribute classifier cost to
	// cache misses in packet traces.
	CacheMiss bool

	// PuntLocal asks the core to divert the packet to local delivery
	// after the current gate — how hop-by-hop control protocols (RSVP
	// PATH messages flagged by the router-alert option) reach their
	// daemon on every router along the path even though the packet is
	// addressed to the far-end session destination.
	PuntLocal bool

	// Mbuf is the packet's slot in its Owner's mbuf table, counted from
	// 1; 0 for a packet no pool slot holds (a heap fallback, a clone, a
	// generated packet). Written and read only by the pool.
	Mbuf uint32

	// Path is the in-band trace context (eisrpath). Inactive for the
	// vast majority of packets; embedded by value so the untraced path
	// pays one boolean check and no allocation.
	Path PathContext

	// QNext links packets queued on the same flow inside a queueing
	// discipline (the classic mbuf m_nextpkt chain). It is owned by
	// whichever discipline currently queues the packet: schedulers may
	// thread unbounded per-flow lists through it without allocating, and
	// must clear it on dequeue. Code outside a discipline never touches
	// it.
	QNext *Packet

	// Owner, when non-nil, is the pool the packet was drawn from: the
	// mbuf is this header and its Data buffer together. The holder that
	// retires the packet (transmit, drop, shed) returns it with
	// ReleaseBuf so the pool can recycle both; a nil Owner means the
	// packet is caller-managed (generated packets, wire-driver slots)
	// and release is a no-op.
	Owner BufOwner
}

// epoch anchors Nanotime. It is set one second before the package
// initialises, so every reading is positive and 0 can mean "unstamped".
var epoch = time.Now().Add(-time.Second)

// Nanotime returns the process-wide monotonic clock in nanoseconds: the
// clock of Packet.Stamp, of flow-record last use and of path-trace
// residency. It reads only the monotonic clock, not the wall clock, so
// a receive pays one clock read per packet, and differences between
// readings are immune to wall-clock steps.
//
//eisr:fastpath
func Nanotime() int64 { return int64(time.Since(epoch)) }

// epochWall is epoch on the wall clock, in Unix nanoseconds.
var epochWall = epoch.UnixNano()

// WallNanos converts a Nanotime reading to Unix nanoseconds, against
// the one wall-clock reading taken with the monotonic anchor when the
// package initialised: a record that needs a wall-clock time pays no
// second clock read, and readings that are ordered on the monotonic
// clock stay ordered on the wall.
//
//eisr:fastpath
func WallNanos(mono int64) int64 { return epochWall + mono }

// BufOwner recycles whole packets: header and receive buffer.
// netdev.Interface implements it for its mbuf pool; the indirection
// keeps the packet header free of a netdev dependency.
//
// A pooled packet has exactly one owner at a time — the driver, then
// the forwarding core, then whichever stage it is handed to (an output
// queue, a scheduler instance, the transmit path) — and only the owner
// reads or writes it. Handing a packet on ends the giver's ownership
// just as releasing it does: the next owner may transmit and release
// it, and the pool may give the same *Packet to the next received
// datagram, at any moment after. A stage that must keep anything past
// its turn copies it (Clone for a whole packet).
type BufOwner interface {
	ReleaseMbuf(p *Packet)
}

// ReleaseBuf returns the packet to its pool, if any; the caller must
// not touch p afterwards. The owner is cleared first so a second
// release on another path is a harmless no-op rather than a double
// free.
//
//eisr:fastpath
func (p *Packet) ReleaseBuf() {
	if o := p.Owner; o != nil {
		p.Owner = nil
		o.ReleaseMbuf(p)
	}
}

// MarkDrop flags the packet for discard. The core counts it as a plugin
// drop; the plugin keeps any detail in its own statistics.
func (p *Packet) MarkDrop() { p.Drop = true }

// Len returns the datagram length in bytes.
func (p *Packet) Len() int { return len(p.Data) }

// Version returns the IP version from the first header byte, or 0 if the
// packet is empty.
func (p *Packet) Version() int {
	if len(p.Data) == 0 {
		return 0
	}
	return int(p.Data[0] >> 4)
}

// Clone deep-copies the packet (data included). The FIX is not carried
// over: a clone is a new packet as far as the classifier is concerned.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Data = append([]byte(nil), p.Data...)
	q.FIX = nil
	q.FIXGen = 0
	q.CacheMiss = false
	q.QNext = nil
	q.Owner = nil // the clone's data is heap-owned, not pool-owned
	q.Mbuf = 0
	return &q
}
