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

// ExtractKey parses the datagram and fills in the six-tuple. It is the
// one key parser: a single pass over the bytes in place that reads the
// IPv4 header (options skipped, non-first fragments keyed on addresses
// and protocol alone) or the IPv6 header and its hop-by-hop extension
// headers, then the UDP or TCP ports. For protocols without ports (ICMP,
// ESP, ...) the port fields are zero. It builds no header values and
// copies no options, so it never allocates: a malformed datagram is
// reported with one of the sentinels ErrTruncated, ErrBadVersion or
// ErrBadHeader. It accepts and rejects exactly what ParseIPv4 or
// ParseIPv6, ParseHopByHop and ParseUDP or ParseTCP do in sequence.
//
//eisr:fastpath
func ExtractKey(data []byte, inIf int32) (Key, error) {
	k := Key{InIf: inIf}
	if len(data) == 0 {
		return k, ErrTruncated
	}
	var l4 []byte
	switch data[0] >> 4 {
	case 4:
		if len(data) < IPv4HeaderLen {
			return k, ErrTruncated
		}
		ihl := int(data[0]&0x0f) * 4
		total := int(binary.BigEndian.Uint16(data[2:4]))
		if ihl < IPv4HeaderLen || total < ihl || total > len(data) {
			return k, ErrBadHeader
		}
		copy(k.Src.b[:4], data[12:16])
		copy(k.Dst.b[:4], data[16:20])
		k.Proto = data[9]
		if binary.BigEndian.Uint16(data[6:8])&0x1fff != 0 {
			// Non-first fragments carry no transport header.
			return k, nil
		}
		l4 = data[ihl:total]
	case 6:
		if len(data) < IPv6HeaderLen {
			return k, ErrTruncated
		}
		end := IPv6HeaderLen + int(binary.BigEndian.Uint16(data[4:6]))
		if end > len(data) {
			return k, ErrBadHeader
		}
		k.Src = Addr{v6: true}
		k.Dst = Addr{v6: true}
		copy(k.Src.b[:], data[8:24])
		copy(k.Dst.b[:], data[24:40])
		k.Proto = data[6]
		l4 = data[IPv6HeaderLen:end]
		for k.Proto == ProtoHopByHop {
			n, err := hopByHopLen(l4)
			if err != nil {
				return k, err
			}
			k.Proto = l4[0]
			l4 = l4[n:]
		}
	default:
		return k, ErrBadVersion
	}
	switch k.Proto {
	case ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return k, ErrTruncated
		}
		if binary.BigEndian.Uint16(l4[4:6]) < UDPHeaderLen {
			return k, ErrBadHeader
		}
	case ProtoTCP:
		if len(l4) < TCPHeaderLen {
			return k, ErrTruncated
		}
		if off := int(l4[12]>>4) * 4; off < TCPHeaderLen || off > len(l4) {
			return k, ErrBadHeader
		}
	default:
		return k, nil
	}
	k.SrcPort = binary.BigEndian.Uint16(l4[0:2])
	k.DstPort = binary.BigEndian.Uint16(l4[2:4])
	return k, nil
}

// hopByHopLen validates the hop-by-hop extension header at the start of
// b in place, with ParseHopByHop's checks, and returns its length.
func hopByHopLen(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, ErrTruncated
	}
	n := (int(b[1]) + 1) * 8
	if len(b) < n {
		return 0, ErrTruncated
	}
	for opts := b[2:n]; len(opts) > 0; {
		if opts[0] == Opt6Pad1 {
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 || len(opts) < 2+int(opts[1]) {
			return 0, ErrBadHeader
		}
		opts = opts[2+int(opts[1]):]
	}
	return n, nil
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
// data from interface inIf: every header field is cleared in place, the
// six-tuple is extracted in ExtractKey's one pass and hashed once
// (SetKey), and the TOS (IPv6 traffic class) is read from the IP header.
// On a malformed datagram it returns the extraction error and leaves p
// cleared with KeyValid false. NewPacket builds on it, and a driver
// recycling whole packets (netdev's mbuf pool) calls it on every reuse,
// so a recycled packet carries nothing of its previous life.
func (p *Packet) Reset(data []byte, inIf int32) error {
	*p = Packet{}
	p.Data, p.InIf, p.OutIf = data, inIf, -1
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
