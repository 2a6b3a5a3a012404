package pkt

import (
	"encoding/binary"
	"fmt"
)

// UDPSpec describes a UDP datagram to synthesize. The traffic generator
// and tests build packets through these specs rather than hand-rolling
// byte slices.
type UDPSpec struct {
	Src, Dst     Addr
	SrcPort      uint16
	DstPort      uint16
	TTL          uint8  // hop limit for IPv6; defaults to 64 when zero
	TOS          uint8  // traffic class for IPv6
	FlowLabel    uint32 // IPv6 only
	Payload      []byte
	HopByHop     []HopByHopOption // IPv6 only: emit a hop-by-hop header
	OmitChecksum bool             // leave the UDP checksum zero (v4 only)
}

// BuildUDP synthesizes a complete IPv4 or IPv6 UDP datagram. The family
// is taken from the source address; mixing families is an error.
func BuildUDP(spec UDPSpec) ([]byte, error) {
	if spec.Src.IsV6() != spec.Dst.IsV6() {
		return nil, fmt.Errorf("pkt: mixed address families %s -> %s", spec.Src, spec.Dst)
	}
	ttl := spec.TTL
	if ttl == 0 {
		ttl = 64
	}
	udpLen := UDPHeaderLen + len(spec.Payload)
	uh := UDPHeader{SrcPort: spec.SrcPort, DstPort: spec.DstPort, Length: uint16(udpLen)}

	if !spec.Src.IsV6() {
		total := IPv4HeaderLen + udpLen
		buf := make([]byte, total)
		ih := IPv4Header{
			TOS: spec.TOS, TotalLen: uint16(total), TTL: ttl,
			Protocol: ProtoUDP, Src: spec.Src, Dst: spec.Dst,
		}
		if _, err := ih.Marshal(buf); err != nil {
			return nil, err
		}
		seg := buf[IPv4HeaderLen:]
		if _, err := uh.Marshal(seg); err != nil {
			return nil, err
		}
		copy(seg[UDPHeaderLen:], spec.Payload)
		if !spec.OmitChecksum {
			cs := ChecksumTransport(spec.Src, spec.Dst, ProtoUDP, seg)
			binary.BigEndian.PutUint16(seg[6:8], cs)
		}
		return buf, nil
	}

	var ext []byte
	next := uint8(ProtoUDP)
	if len(spec.HopByHop) > 0 {
		hh := HopByHopHeader{NextHeader: ProtoUDP, Options: spec.HopByHop}
		ext = hh.Marshal()
		next = ProtoHopByHop
	}
	total := IPv6HeaderLen + len(ext) + udpLen
	buf := make([]byte, total)
	ih := IPv6Header{
		TrafficClass: spec.TOS, FlowLabel: spec.FlowLabel,
		PayloadLen: uint16(len(ext) + udpLen), NextHeader: next, HopLimit: ttl,
		Src: spec.Src, Dst: spec.Dst,
	}
	if _, err := ih.Marshal(buf); err != nil {
		return nil, err
	}
	copy(buf[IPv6HeaderLen:], ext)
	seg := buf[IPv6HeaderLen+len(ext):]
	if _, err := uh.Marshal(seg); err != nil {
		return nil, err
	}
	copy(seg[UDPHeaderLen:], spec.Payload)
	cs := ChecksumTransport(spec.Src, spec.Dst, ProtoUDP, seg)
	binary.BigEndian.PutUint16(seg[6:8], cs)
	return buf, nil
}

// TCPSpec describes a TCP segment to synthesize.
type TCPSpec struct {
	Src, Dst Addr
	SrcPort  uint16
	DstPort  uint16
	Seq, Ack uint32
	Flags    uint8
	Window   uint16
	TTL      uint8
	Payload  []byte
}

// BuildTCP synthesizes a complete IPv4 or IPv6 TCP segment.
func BuildTCP(spec TCPSpec) ([]byte, error) {
	if spec.Src.IsV6() != spec.Dst.IsV6() {
		return nil, fmt.Errorf("pkt: mixed address families %s -> %s", spec.Src, spec.Dst)
	}
	ttl := spec.TTL
	if ttl == 0 {
		ttl = 64
	}
	window := spec.Window
	if window == 0 {
		window = 65535
	}
	th := TCPHeader{
		SrcPort: spec.SrcPort, DstPort: spec.DstPort,
		Seq: spec.Seq, Ack: spec.Ack, Flags: spec.Flags, Window: window,
	}
	segLen := th.HeaderLen() + len(spec.Payload)

	marshalSeg := func(seg []byte) error {
		if _, err := th.Marshal(seg); err != nil {
			return err
		}
		copy(seg[th.HeaderLen():], spec.Payload)
		cs := ChecksumTransport(spec.Src, spec.Dst, ProtoTCP, seg)
		binary.BigEndian.PutUint16(seg[16:18], cs)
		return nil
	}

	if !spec.Src.IsV6() {
		total := IPv4HeaderLen + segLen
		buf := make([]byte, total)
		ih := IPv4Header{TotalLen: uint16(total), TTL: ttl, Protocol: ProtoTCP, Src: spec.Src, Dst: spec.Dst}
		if _, err := ih.Marshal(buf); err != nil {
			return nil, err
		}
		if err := marshalSeg(buf[IPv4HeaderLen:]); err != nil {
			return nil, err
		}
		return buf, nil
	}
	total := IPv6HeaderLen + segLen
	buf := make([]byte, total)
	ih := IPv6Header{PayloadLen: uint16(segLen), NextHeader: ProtoTCP, HopLimit: ttl, Src: spec.Src, Dst: spec.Dst}
	if _, err := ih.Marshal(buf); err != nil {
		return nil, err
	}
	if err := marshalSeg(buf[IPv6HeaderLen:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// ExtractKey parses the datagram and fills in the six-tuple. For IPv6 it
// walks hop-by-hop extension headers to reach the transport header. For
// protocols without ports (ICMP, ESP, ...) the port fields are zero. This
// is the single header walk the core performs per received packet.
func ExtractKey(data []byte, inIf int32) (Key, error) {
	var k Key
	k.InIf = inIf
	if len(data) == 0 {
		return k, ErrTruncated
	}
	var proto uint8
	var l4 []byte
	switch data[0] >> 4 {
	case 4:
		h, err := ParseIPv4(data)
		if err != nil {
			return k, err
		}
		k.Src, k.Dst = h.Src, h.Dst
		proto = h.Protocol
		if h.FragOff != 0 {
			// Non-first fragments carry no transport header; classify on
			// addresses and protocol alone.
			k.Proto = proto
			return k, nil
		}
		l4 = data[h.HeaderLen():int(h.TotalLen)]
	case 6:
		h, err := ParseIPv6(data)
		if err != nil {
			return k, err
		}
		k.Src, k.Dst = h.Src, h.Dst
		proto = h.NextHeader
		rest := data[IPv6HeaderLen : IPv6HeaderLen+int(h.PayloadLen)]
		for proto == ProtoHopByHop {
			hh, err := ParseHopByHop(rest)
			if err != nil {
				return k, err
			}
			proto = hh.NextHeader
			rest = rest[hh.Len:]
		}
		l4 = rest
	default:
		return k, ErrBadVersion
	}
	k.Proto = proto
	switch proto {
	case ProtoUDP:
		uh, err := ParseUDP(l4)
		if err != nil {
			return k, err
		}
		k.SrcPort, k.DstPort = uh.SrcPort, uh.DstPort
	case ProtoTCP:
		th, err := ParseTCP(l4)
		if err != nil {
			return k, err
		}
		k.SrcPort, k.DstPort = th.SrcPort, th.DstPort
	}
	return k, nil
}

// NewPacket wraps raw datagram bytes into a Packet, extracting the
// six-tuple. It is the receive-path entry point used by device drivers.
func NewPacket(data []byte, inIf int32) (*Packet, error) {
	p := new(Packet)
	if err := p.Reset(data, inIf); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset reinitializes p in place as a freshly received packet carrying
// data from interface inIf: every header field is cleared, the six-tuple
// is extracted and hashed once (SetKey) and the TOS (IPv6 traffic class)
// is read from the IP header. On a malformed datagram it returns the
// extraction error and leaves p cleared with KeyValid false. NewPacket
// builds on it, and a driver recycling whole packets (netdev's mbuf
// pool) calls it on every reuse, so a recycled packet carries nothing of
// its previous life.
func (p *Packet) Reset(data []byte, inIf int32) error {
	*p = Packet{Data: data, InIf: inIf, OutIf: -1}
	k, err := ExtractKey(data, inIf)
	if err != nil {
		return err
	}
	p.SetKey(k)
	switch data[0] >> 4 {
	case 4:
		p.TOS = data[1]
	case 6:
		p.TOS = data[0]<<4 | data[1]>>4
	}
	return nil
}
