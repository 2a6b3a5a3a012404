package netdev

import (
	"encoding/binary"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

// optionDatagrams builds the received datagrams whose headers carry
// options: a TCP segment with 12 bytes of options (MSS, SACK-permitted,
// window scale, padding — what almost every real segment carries), an
// IPv4 UDP datagram with a router-alert option, and an IPv6 UDP
// datagram behind a hop-by-hop router alert.
func optionDatagrams(t *testing.T) map[string][]byte {
	t.Helper()
	src, dst := pkt.MustParseAddr("10.0.0.1"), pkt.MustParseAddr("10.0.0.2")
	tcp := make([]byte, pkt.IPv4HeaderLen+pkt.TCPHeaderLen+12+16)
	ih := pkt.IPv4Header{TotalLen: uint16(len(tcp)), TTL: 64, Protocol: pkt.ProtoTCP, Src: src, Dst: dst}
	th := pkt.TCPHeader{SrcPort: 40000, DstPort: 80, Flags: pkt.TCPSyn, Window: 65535,
		Options: []byte{2, 4, 0x05, 0xb4, 4, 2, 3, 3, 7, 1, 1, 0}}
	if _, err := ih.Marshal(tcp); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Marshal(tcp[pkt.IPv4HeaderLen:]); err != nil {
		t.Fatal(err)
	}

	alert := make([]byte, pkt.IPv4HeaderLen+4+pkt.UDPHeaderLen+16)
	ih = pkt.IPv4Header{TotalLen: uint16(len(alert)), TTL: 1, Protocol: pkt.ProtoUDP, Src: src, Dst: dst,
		Options: []byte{0x94, 0x04, 0x00, 0x00}}
	hl, err := ih.Marshal(alert)
	if err != nil {
		t.Fatal(err)
	}
	uh := pkt.UDPHeader{SrcPort: 1, DstPort: 2, Length: uint16(len(alert) - hl)}
	if _, err := uh.Marshal(alert[hl:]); err != nil {
		t.Fatal(err)
	}

	hbh, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("2001:db8::1"), Dst: pkt.MustParseAddr("2001:db8::2"),
		SrcPort: 3455, DstPort: 3455, Payload: make([]byte, 16),
		HopByHop: []pkt.HopByHopOption{{Type: pkt.Opt6RouterAlert, Data: []byte{0, 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"tcp-options": tcp, "ipv4-router-alert": alert, "ipv6-hop-by-hop": hbh}
}

// TestReceiveOptionsZeroAlloc: a datagram whose IP or TCP header
// carries options is received, polled and released without allocating
// — the key parser skips options in place instead of copying them.
func TestReceiveOptionsZeroAlloc(t *testing.T) {
	for name, data := range optionDatagrams(t) {
		t.Run(name, func(t *testing.T) {
			i := NewInterface(0, Config{RxRing: 4})
			cycle := func() {
				if err := i.Inject(data); err != nil {
					t.Fatal(err)
				}
				p := i.Poll()
				if p == nil || !p.KeyValid {
					t.Fatal("datagram not received with a valid key")
				}
				p.ReleaseBuf()
			}
			cycle() // fill the mbuf pool
			if n := testing.AllocsPerRun(1000, cycle); n != 0 {
				t.Errorf("%.1f allocs per received packet, want 0", n)
			}
		})
	}
}

// TestReceiveMalformedZeroAlloc: a datagram that claims more bytes than
// it carries is refused and counted as an rx malformed drop, and an
// outsider sending such datagrams cannot make the receive path allocate.
func TestReceiveMalformedZeroAlloc(t *testing.T) {
	data := buildUDP(t, 16)
	binary.BigEndian.PutUint16(data[2:4], uint16(len(data)+1)) // total length beyond the buffer
	i := NewInterface(0, Config{RxRing: 4})
	const runs = 1000
	inject := func() {
		if err := i.Inject(data); err == nil {
			t.Fatal("malformed datagram accepted")
		}
	}
	inject()
	if n := testing.AllocsPerRun(runs, inject); n != 0 {
		t.Errorf("%.1f allocs per malformed datagram, want 0", n)
	}
	// AllocsPerRun makes one warm-up call before its runs.
	if s := i.Stats(); s.RxDropMalformed != runs+2 || s.RxDrops != runs+2 || s.RxPackets != 0 {
		t.Errorf("stats: %+v, want %d malformed drops", s, runs+2)
	}
	if i.Poll() != nil {
		t.Error("malformed datagram reached the RX ring")
	}
}
