// Package pkt provides the packet buffer used throughout the EISR data
// path (the analog of the BSD mbuf described in the paper) together with
// the IPv4/IPv6/TCP/UDP header codecs the core and the classifier operate
// on.
//
// The central types are Addr (a fixed-size, comparable IP address usable
// as a hash key, in the spirit of gopacket's fixed-size Endpoint), Key
// (the six-tuple <src, dst, proto, sport, dport, inif> that identifies a
// flow), and Packet (the mbuf analog, carrying the raw datagram, receive
// metadata, and the flow-index slot the AIU fills in on the cached path).
package pkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Addr is a fixed-size IP address. IPv4 addresses occupy the first four
// bytes of the array; the version is tracked explicitly so that 1.2.3.4
// and ::0102:0304 remain distinct values. Addr is comparable and therefore
// usable directly as a map key, and copying it never allocates — the same
// trade-off gopacket makes for its Endpoint type.
type Addr struct {
	b  [16]byte
	v6 bool
}

// AddrV4 builds an IPv4 Addr from a host-order 32-bit value.
func AddrV4(v uint32) Addr {
	var a Addr
	a.b[0] = byte(v >> 24)
	a.b[1] = byte(v >> 16)
	a.b[2] = byte(v >> 8)
	a.b[3] = byte(v)
	return a
}

// AddrFrom4 builds an IPv4 Addr from four bytes in network order.
func AddrFrom4(b [4]byte) Addr {
	var a Addr
	copy(a.b[:4], b[:])
	return a
}

// AddrFrom16 builds an IPv6 Addr from sixteen bytes in network order.
func AddrFrom16(b [16]byte) Addr {
	return Addr{b: b, v6: true}
}

// ParseAddr parses a textual IPv4 or IPv6 address.
func ParseAddr(s string) (Addr, error) {
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return Addr{}, err
	}
	return AddrFromNetip(ip), nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// AddrFromNetip converts a netip.Addr (unmapping 4-in-6 forms).
func AddrFromNetip(ip netip.Addr) Addr {
	ip = ip.Unmap()
	if ip.Is4() {
		return AddrFrom4(ip.As4())
	}
	return AddrFrom16(ip.As16())
}

// Netip converts back to a netip.Addr.
func (a Addr) Netip() netip.Addr {
	if a.v6 {
		return netip.AddrFrom16(a.b)
	}
	var b4 [4]byte
	copy(b4[:], a.b[:4])
	return netip.AddrFrom4(b4)
}

// IsV6 reports whether the address is IPv6.
func (a Addr) IsV6() bool { return a.v6 }

// BitLen returns the address width in bits: 32 or 128.
func (a Addr) BitLen() int {
	if a.v6 {
		return 128
	}
	return 32
}

// Bytes returns the significant bytes of the address (4 or 16).
func (a Addr) Bytes() []byte {
	if a.v6 {
		return a.b[:]
	}
	return a.b[:4]
}

// As4 returns the IPv4 bytes. It panics if the address is IPv6.
func (a Addr) As4() [4]byte {
	if a.v6 {
		panic("pkt: As4 called on IPv6 address")
	}
	var b [4]byte
	copy(b[:], a.b[:4])
	return b
}

// As16 returns the 16-byte form (IPv4 addresses left-aligned, rest zero).
func (a Addr) As16() [16]byte { return a.b }

// V4Uint returns the IPv4 address as a host-order uint32. It panics if the
// address is IPv6.
func (a Addr) V4Uint() uint32 {
	if a.v6 {
		panic("pkt: V4Uint called on IPv6 address")
	}
	return uint32(a.b[0])<<24 | uint32(a.b[1])<<16 | uint32(a.b[2])<<8 | uint32(a.b[3])
}

// Bit returns bit i of the address, counting from the most significant bit
// of the first byte (bit 0). It panics if i is out of range for the
// address family. Prefix-trie implementations use this accessor.
func (a Addr) Bit(i int) byte {
	if i < 0 || i >= a.BitLen() {
		panic(fmt.Sprintf("pkt: address bit %d out of range for %d-bit address", i, a.BitLen()))
	}
	return (a.b[i>>3] >> (7 - uint(i&7))) & 1
}

// Truncate zeroes all bits past the first n, yielding the canonical form
// of an n-bit prefix of the address. It masks the address as two 64-bit
// words, not byte by byte: BSPL truncates once per hash probe.
func (a Addr) Truncate(n int) Addr {
	if n >= a.BitLen() {
		return a
	}
	hi := binary.BigEndian.Uint64(a.b[:8])
	lo := binary.BigEndian.Uint64(a.b[8:])
	switch {
	case n <= 0:
		hi, lo = 0, 0
	case n < 64:
		hi &^= ^uint64(0) >> uint(n)
		lo = 0
	default:
		lo &^= ^uint64(0) >> uint(n-64)
	}
	binary.BigEndian.PutUint64(a.b[:8], hi)
	binary.BigEndian.PutUint64(a.b[8:], lo)
	return a
}

// CommonPrefixLen returns the number of leading bits a and b share. Both
// addresses must be the same family; mixed families share zero bits.
func (a Addr) CommonPrefixLen(b Addr) int {
	if a.v6 != b.v6 {
		return 0
	}
	max := a.BitLen()
	n := 0
	for i := 0; i < max/8; i++ {
		x := a.b[i] ^ b.b[i]
		if x == 0 {
			n += 8
			continue
		}
		for x&0x80 == 0 {
			n++
			x <<= 1
		}
		return n
	}
	return n
}

// String renders the address in conventional dotted/colon notation.
func (a Addr) String() string { return a.Netip().String() }

// Prefix is an address prefix: the leading Len bits of Addr are
// significant. A Len equal to the address BitLen is a host route; Len 0
// matches everything in the family. The AIU uses prefixes for the
// partially wildcarded source/destination fields of filters, and the
// routing table uses them for destinations.
type Prefix struct {
	Addr Addr
	Len  int
}

// PrefixFrom builds a canonical prefix (address truncated to len bits).
func PrefixFrom(a Addr, n int) Prefix {
	if n < 0 {
		n = 0
	}
	if n > a.BitLen() {
		n = a.BitLen()
	}
	return Prefix{Addr: a.Truncate(n), Len: n}
}

// ParsePrefix parses CIDR notation ("129.0.0.0/8", "2001:db8::/32").
// A bare address parses as a host prefix.
func ParsePrefix(s string) (Prefix, error) {
	if p, err := netip.ParsePrefix(s); err == nil {
		a := AddrFromNetip(p.Addr())
		return PrefixFrom(a, p.Bits()), nil
	}
	a, err := ParseAddr(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("pkt: cannot parse prefix %q: %w", s, err)
	}
	return Prefix{Addr: a, Len: a.BitLen()}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	if p.Addr.IsV6() != a.IsV6() {
		return false
	}
	return a.CommonPrefixLen(p.Addr) >= p.Len
}

// IsHost reports whether the prefix is fully specified.
func (p Prefix) IsHost() bool { return p.Len == p.Addr.BitLen() }

// Overlaps reports whether two prefixes of the same family share any
// address (one contains the other).
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Addr.IsV6() != q.Addr.IsV6() {
		return false
	}
	n := p.Len
	if q.Len < n {
		n = q.Len
	}
	return p.Addr.CommonPrefixLen(q.Addr) >= n
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Len)
}
