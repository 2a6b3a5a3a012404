package netio

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
)

// receiveEntry is one way a datagram reaches an interface. rig builds
// the receiving interface from cfg and returns it with a send function
// and, for the wire, the link.
type receiveEntry struct {
	name string
	rig  func(t *testing.T, cfg netdev.Config) (*netdev.Interface, func([]byte), *UDPLink)
}

var receiveEntries = []receiveEntry{
	{"inject", func(t *testing.T, cfg netdev.Config) (*netdev.Interface, func([]byte), *UDPLink) {
		ifc := netdev.NewInterface(0, cfg)
		return ifc, func(d []byte) { _ = ifc.Inject(d) }, nil
	}},
	{"udp-link", func(t *testing.T, cfg netdev.Config) (*netdev.Interface, func([]byte), *UDPLink) {
		ifc, l := newLink(t, cfg, Config{})
		l.Start()
		src := dialTo(t, l)
		return ifc, func(d []byte) {
			if _, err := src.Write(d); err != nil {
				t.Fatal(err)
			}
		}, l
	}},
	{"connect-peer", func(t *testing.T, cfg netdev.Config) (*netdev.Interface, func([]byte), *UDPLink) {
		ifc := netdev.NewInterface(1, cfg)
		sender := netdev.NewInterface(0, netdev.Config{})
		netdev.Connect(sender, ifc)
		return ifc, func(d []byte) {
			if err := sender.Transmit(&pkt.Packet{Data: d}); err != nil {
				t.Fatal(err)
			}
		}, nil
	}},
}

// TestReceiveEntryPointsCountOnce: Inject, a loopback UDP link and a
// Connect peer all receive through the interface's one Receive, so each
// refusal — down, too big, malformed, ring full — is counted exactly
// once, in the receiving interface's Stats. A bad path-trace header is
// a wire-only event: the link counts it and the interface never sees
// the datagram.
func TestReceiveEntryPointsCountOnce(t *testing.T) {
	good := buildUDP(t, []byte("counted once"))
	cases := []struct {
		name     string
		cfg      netdev.Config
		down     bool
		send     [][]byte
		want     netdev.Stats
		badPath  uint64
		wireOnly bool
	}{
		{name: "down", down: true, send: [][]byte{good},
			want: netdev.Stats{RxDrops: 1, RxDropDown: 1}},
		{name: "too-big", cfg: netdev.Config{MTU: 256}, send: [][]byte{make([]byte, 300)},
			want: netdev.Stats{RxDrops: 1, RxDropTooBig: 1}},
		{name: "malformed", send: [][]byte{{0xff, 0x01, 0x02}},
			want: netdev.Stats{RxDrops: 1, RxDropMalformed: 1}},
		{name: "ring-full", cfg: netdev.Config{RxRing: 1}, send: [][]byte{good, good},
			want: netdev.Stats{RxPackets: 1, RxBytes: uint64(len(good)), RxDrops: 1, RxDropRing: 1}},
		{name: "bad-path", send: [][]byte{{pkt.PathMagic, pkt.PathVersion, 0x00, 0x01}},
			badPath: 1, wireOnly: true},
	}
	for _, e := range receiveEntries {
		for _, tc := range cases {
			if tc.wireOnly && e.name != "udp-link" {
				continue
			}
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				ifc, send, link := e.rig(t, tc.cfg)
				ifc.SetUp(!tc.down)
				for _, d := range tc.send {
					send(d)
				}
				settled := func() bool {
					s := ifc.Stats()
					n := s.RxPackets + s.RxDrops
					if link != nil {
						n += link.Stats().RxDropBadPath
					}
					return n >= uint64(len(tc.send))
				}
				deadline := time.Now().Add(2 * time.Second)
				for !settled() && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := ifc.Stats(); got != tc.want {
					t.Errorf("interface stats = %+v\nwant             %+v", got, tc.want)
				}
				if link != nil {
					if got := link.Stats().RxDropBadPath; got != tc.badPath {
						t.Errorf("link bad-path = %d, want %d", got, tc.badPath)
					}
				}
			})
		}
	}
}

// TestWireRxHeldPacketsKeepTheirBytes: every wire packet lands in its
// own mbuf, so a holder that keeps far more packets than the pool depth
// (a backlogged scheduler, full output FIFOs) never sees one packet's
// bytes overwritten by a later arrival. Past the pool depth, receive
// falls back to counted heap packets instead of reusing held ones.
func TestWireRxHeldPacketsKeepTheirBytes(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{RxRing: 2}, Config{})
	l.Start()
	src := dialTo(t, l)

	held := ifc.BufDepth() + 1100
	want := make([][]byte, held)
	got := make([]*pkt.Packet, held)
	for k := range want {
		seq := make([]byte, 4)
		binary.BigEndian.PutUint32(seq, uint32(k))
		want[k] = buildUDP(t, seq)
		if _, err := src.Write(want[k]); err != nil {
			t.Fatal(err)
		}
		if got[k] = pollFor(ifc, 2*time.Second); got[k] == nil {
			t.Fatalf("datagram %d never reached the RX ring: %+v", k, ifc.Stats())
		}
	}
	seen := make(map[*pkt.Packet]int, held)
	corrupt := 0
	for k, p := range got {
		if string(p.Data) != string(want[k]) {
			corrupt++
		}
		if j, dup := seen[p]; dup {
			t.Errorf("packets %d and %d share one *pkt.Packet", j, k)
		}
		seen[p] = k
	}
	if corrupt != 0 {
		t.Errorf("%d of %d held packets lost their bytes", corrupt, held)
	}
	if s := ifc.Stats(); s.MbufFallback != uint64(held-ifc.BufDepth()) {
		t.Errorf("MbufFallback = %d, want the %d packets past the pool depth %d",
			s.MbufFallback, held-ifc.BufDepth(), ifc.BufDepth())
	}
}
