package pkt

import "encoding/binary"

// In-band path tracing (eisrpath): a sampled packet carries a compact
// trace context across the wire, and every router on the path appends
// one hop record. The context travels as an encapsulation header in
// front of the IP datagram on netio links — INT-style telemetry for the
// overlay. The first payload byte of a bare IP datagram is its version
// nibble (4 or 6) shifted into the high bits, so the magic byte 0xE5
// can never be confused with an unencapsulated frame.
//
// Wire layout, version 1, all fields big-endian:
//
//	[0]     magic (0xE5)
//	[1]     version (1)
//	[2:4]   encap length in bytes, header included
//	[4]     flags (reserved, 0)
//	[5]     hop count
//	[6:8]   reserved
//	[8:16]  trace id
//	then hop count * 20-byte hop records:
//	[0:4]   router id
//	[4:6]   ingress interface (int16; -1 = locally generated)
//	[6:8]   egress interface (int16; -1 = delivered/dropped)
//	[8:10]  forwarding worker
//	[10]    gate bitmask (bit i = gate i dispatched an instance)
//	[11]    verdict
//	[12:16] queue residency, nanoseconds (saturating)
//	[16:20] total residency, nanoseconds (saturating)
//
// A receiver that sees a magic byte with a version it does not speak
// skips encap-length bytes and forwards the inner datagram untraced;
// a receiver that sees a bare IP datagram (an untraced or old peer)
// takes the legacy path unchanged. That is the whole version
// negotiation: both sides always interoperate, tracing degrades first.
const (
	PathMagic   = 0xE5
	PathVersion = 1

	// MaxPathHops bounds the hops a context can carry; routers past the
	// limit forward the context unchanged instead of growing it.
	MaxPathHops = 8

	pathHdrWire = 16
	pathHopWire = 20

	// MaxPathEncap is the worst-case encapsulation overhead in front of
	// the IP datagram. Wire buffers are sized MTU+MaxPathEncap.
	MaxPathEncap = pathHdrWire + MaxPathHops*pathHopWire
)

// Hop verdicts. A hop's verdict records what this router did with the
// packet; only the terminating router (delivered or dropped) folds the
// context into its span ring.
const (
	PathVerdictForwarded uint8 = iota + 1
	PathVerdictDelivered
	PathVerdictDropped
)

// PathVerdictString renders a hop verdict (constants only; no alloc).
func PathVerdictString(v uint8) string {
	switch v {
	case PathVerdictForwarded:
		return "forwarded"
	case PathVerdictDelivered:
		return "delivered"
	case PathVerdictDropped:
		return "dropped"
	default:
		return "unknown"
	}
}

// PathHop is one router's record in a trace context.
type PathHop struct {
	Router  uint32 `json:"router"`
	InIf    int16  `json:"in_if"`
	OutIf   int16  `json:"out_if"`
	Worker  uint16 `json:"worker"`
	Gates   uint8  `json:"gates"`
	Verdict uint8  `json:"verdict"`
	QueueNs uint32 `json:"queue_ns"`
	TotalNs uint32 `json:"total_ns"`
}

// PathContext is the in-band trace context carried by a sampled packet.
// It is embedded by value in Packet so the untraced path pays only a
// boolean check — no pointer, no allocation.
type PathContext struct {
	// Active marks the packet as sampled; everything below is
	// meaningful only when it is set.
	Active bool
	// ID is the trace id minted by the origin router.
	ID uint64
	// LocalGates accumulates this router's gate bitmask while the
	// packet walks the gate chain; the hop stamp consumes and clears it.
	LocalGates uint8
	// StampedHere marks that this router appended the last hop, so the
	// wire driver may re-stamp its total residency at egress. Router
	// local: never serialized, cleared on decode and on in-memory link
	// handoff.
	StampedHere bool
	// NHops and Hops are the accumulated per-router records.
	NHops uint8
	Hops  [MaxPathHops]PathHop
}

// AppendHop adds this router's record and reports whether it did;
// beyond MaxPathHops the context is forwarded unchanged (the span
// reports a truncated path).
//
//eisr:fastpath
func (c *PathContext) AppendHop(h PathHop) bool {
	if c.NHops >= MaxPathHops {
		return false
	}
	c.Hops[c.NHops] = h
	c.NHops++
	return true
}

// Last returns the most recently appended hop, or nil.
//
//eisr:fastpath
func (c *PathContext) Last() *PathHop {
	if c.NHops == 0 {
		return nil
	}
	return &c.Hops[c.NHops-1]
}

// EncodedPathLen is the wire size of the context's encapsulation.
//
//eisr:fastpath
func (c *PathContext) EncodedPathLen() int {
	return pathHdrWire + int(c.NHops)*pathHopWire
}

// ClampNs saturates a nanosecond delta into a hop's uint32 field
// (negative deltas — clock steps — clamp to zero, >4.29s to max).
//
//eisr:fastpath
func ClampNs(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(ns)
}

// EncodePath writes the context's encapsulation header into dst and
// returns the bytes written (0 if dst is too small — the caller then
// sends the datagram bare). Allocation-free.
//
//eisr:fastpath
func EncodePath(c *PathContext, dst []byte) int {
	n := c.EncodedPathLen()
	if len(dst) < n {
		return 0
	}
	dst[0] = PathMagic
	dst[1] = PathVersion
	binary.BigEndian.PutUint16(dst[2:4], uint16(n))
	dst[4] = 0
	dst[5] = c.NHops
	dst[6], dst[7] = 0, 0
	binary.BigEndian.PutUint64(dst[8:16], c.ID)
	off := pathHdrWire
	for i := 0; i < int(c.NHops); i++ {
		h := &c.Hops[i]
		binary.BigEndian.PutUint32(dst[off:off+4], h.Router)
		binary.BigEndian.PutUint16(dst[off+4:off+6], uint16(h.InIf))
		binary.BigEndian.PutUint16(dst[off+6:off+8], uint16(h.OutIf))
		binary.BigEndian.PutUint16(dst[off+8:off+10], h.Worker)
		dst[off+10] = h.Gates
		dst[off+11] = h.Verdict
		binary.BigEndian.PutUint32(dst[off+12:off+16], h.QueueNs)
		binary.BigEndian.PutUint32(dst[off+16:off+20], h.TotalNs)
		off += pathHopWire
	}
	return n
}

// DecodePath recognizes and strips a path encapsulation at the front of
// a received wire frame. It returns the encapsulation length consumed
// (0 for a bare IP datagram) and ok=false only for a malformed encap —
// a truncated header or an impossible length, which the link counts as
// a malformed drop. An unknown (newer) version is skipped whole and the
// inner datagram delivered untraced: version negotiation degrades
// tracing, never connectivity. Allocation-free.
//
//eisr:fastpath
func DecodePath(data []byte, c *PathContext) (int, bool) {
	if len(data) == 0 || data[0] != PathMagic {
		return 0, true // bare IP datagram (or garbage caught later)
	}
	if len(data) < pathHdrWire {
		return 0, false
	}
	encLen := int(binary.BigEndian.Uint16(data[2:4]))
	if encLen < pathHdrWire || encLen > len(data) {
		return 0, false
	}
	if data[1] != PathVersion {
		return encLen, true // future version: strip, deliver untraced
	}
	nhops := int(data[5])
	if nhops > MaxPathHops || pathHdrWire+nhops*pathHopWire > encLen {
		return 0, false
	}
	c.Active = true
	c.LocalGates, c.StampedHere = 0, false
	c.ID = binary.BigEndian.Uint64(data[8:16])
	c.NHops = uint8(nhops)
	off := pathHdrWire
	for i := 0; i < nhops; i++ {
		h := &c.Hops[i]
		h.Router = binary.BigEndian.Uint32(data[off : off+4])
		h.InIf = int16(binary.BigEndian.Uint16(data[off+4 : off+6]))
		h.OutIf = int16(binary.BigEndian.Uint16(data[off+6 : off+8]))
		h.Worker = binary.BigEndian.Uint16(data[off+8 : off+10])
		h.Gates = data[off+10]
		h.Verdict = data[off+11]
		h.QueueNs = binary.BigEndian.Uint32(data[off+12 : off+16])
		h.TotalNs = binary.BigEndian.Uint32(data[off+16 : off+20])
		off += pathHopWire
	}
	return encLen, true
}
