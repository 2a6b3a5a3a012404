package main

import (
	"errors"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

// hop does what a router does to a forwarded datagram: decrement the
// TTL and recompute the header checksum.
func hop(d []byte) []byte {
	b := append([]byte(nil), d...)
	b[8]--
	b[10], b[11] = 0, 0
	var sum uint32
	for i := 0; i < pkt.IPv4HeaderLen; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	b[10], b[11] = byte(^sum>>8), byte(^sum)
	return b
}

func testFlows(t *testing.T) *flowSet {
	t.Helper()
	fs, err := buildFlows(2, func(i int) pkt.UDPSpec {
		return pkt.UDPSpec{
			Src: pkt.AddrV4(0x0a000001 + uint32(i)), Dst: pkt.AddrV4(0x14000001),
			SrcPort: 1000, DstPort: 2000,
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestVerifierAcceptsForwardedDatagram(t *testing.T) {
	fs, v := testFlows(t), newVerifier(16)
	d := fs.datagram(1)
	stampSeq(d, 42)
	v.expect(42)
	if err := v.check(hop(d)); err != nil {
		t.Fatalf("check: %v", err)
	}
	if err := v.check(hop(d)); !errors.Is(err, errSeq) {
		t.Errorf("second delivery of seq 42: err %v, want errSeq", err)
	}
}

func TestVerifierRejects(t *testing.T) {
	fs := testFlows(t)
	for _, c := range []struct {
		name string
		mod  func(d []byte) []byte
		want error
	}{
		{"wrong sequence number", func(d []byte) []byte { stampSeq(d, 43); return hop(d) }, errSeq},
		{"TTL not decremented", func(d []byte) []byte { return append([]byte(nil), d...) }, errTTL},
		{"TTL decremented twice", func(d []byte) []byte { return hop(hop(d)) }, errTTL},
		{"bad header checksum", func(d []byte) []byte { b := hop(d); b[11] ^= 1; return b }, errChecksum},
		{"corrupted source address", func(d []byte) []byte { b := hop(d); b[12] ^= 0x80; return b }, errChecksum},
		{"truncated", func(d []byte) []byte { return hop(d)[:datagramLen-1] }, errShape},
		{"not ours", func(d []byte) []byte { b := hop(d); b[payloadOff] ^= 1; return b }, errShape},
	} {
		v := newVerifier(16)
		d := fs.datagram(0)
		stampSeq(d, 42)
		v.expect(42)
		if err := v.check(c.mod(d)); !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
	}
}

func TestBuiltDatagramShape(t *testing.T) {
	fs := testFlows(t)
	d := fs.datagram(0)
	if len(d) != datagramLen || d[8] != sendTTL || !ipv4HeaderValid(d[:pkt.IPv4HeaderLen]) {
		t.Fatalf("built datagram % x", d)
	}
	k, err := fs.key(1, 3)
	if err != nil || k.Src != pkt.AddrV4(0x0a000002) || k.InIf != 3 || k.Proto != pkt.ProtoUDP {
		t.Errorf("key = %+v, %v", k, err)
	}
}
