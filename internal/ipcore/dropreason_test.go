package ipcore

import (
	"errors"
	"fmt"
	"testing"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// rejectInstance refuses every packet with an error.
type rejectInstance struct{ dispatchInstance }

func (*rejectInstance) HandlePacket(*pkt.Packet) error { return errors.New("test: rejected") }

// TestTracedDropsNameTheirReason: a traced packet the walk drops is
// committed to the trace ring with the reason it was counted under.
// One packet per reason the walk produces; each must move exactly one
// eisr_drops_total{layer="ipcore"} series, by one, and the packet's
// trace entry must read dropped with that series' reason label.
func TestTracedDropsNameTheirReason(t *testing.T) {
	tel := telemetry.New()
	tel.EnableTrace(64, 1)
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []struct {
		prefix string
		ifc    int32
	}{{"20.0.0.0/8", 1}, {"30.0.0.0/8", 7}, {"40.0.0.0/8", 1}, {"50.0.0.0/8", 1}} {
		routes.Add(pkt.MustParsePrefix(rt.prefix), routing.NextHop{IfIndex: rt.ifc})
	}
	a := aiu.New(aiu.Config{InitialFlows: 64, MaxFlows: 1024}, DefaultGates...)
	r, err := New(Config{Mode: ModePlugin, AIU: a, Routes: routes, VerifyChecksums: true, OutQueueLen: 1, Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	r.AddInterface(netdev.NewInterface(0, netdev.Config{Addr: pkt.MustParseAddr("192.0.2.1")}))
	r.AddInterface(netdev.NewInterface(1, netdev.Config{}))
	for _, b := range []struct {
		dst  string
		inst pcu.Instance
	}{{"40.0.0.0/8", &rejectInstance{dispatchInstance{name: "reject"}}}, {"50.0.0.0/8", &eqPanicInstance{name: "panic"}}} {
		f, err := aiu.ParseFilter("*, " + b.dst + ", UDP, *, *, *")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Bind(pcu.TypeSecurity, f, b.inst, nil); err != nil {
			t.Fatal(err)
		}
	}

	datagram := func(dst string) []byte {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr(dst),
			SrcPort: 1, DstPort: 9, Payload: make([]byte, 8), TTL: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	packet := func(data []byte) *pkt.Packet {
		p, err := pkt.NewPacket(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cells := func() map[string]uint64 {
		m := map[string]uint64{}
		for _, mv := range tel.Snapshot() {
			if mv.Family != "eisr_drops_total" {
				continue
			}
			var layer, reason string
			for _, l := range mv.Labels {
				switch l.Key {
				case "layer":
					layer = l.Value
				case "reason":
					reason = l.Value
				}
			}
			if layer == "ipcore" {
				m[reason] = mv.Counter
			}
		}
		return m
	}

	steps := []struct {
		reason string
		p      func() *pkt.Packet
	}{
		{"bad-checksum", func() *pkt.Packet {
			p := packet(datagram("20.0.0.1"))
			p.Data[10] ^= 0xff
			return p
		}},
		{"malformed", func() *pkt.Packet {
			data := datagram("20.0.0.1")
			data[0] = 0x55
			return &pkt.Packet{Data: data, OutIf: -1}
		}},
		{"ttl-expired", func() *pkt.Packet {
			data := datagram("20.0.0.1")
			for data[8] > 0 {
				if _, err := pkt.DecTTLv4(data); err != nil {
					t.Fatal(err)
				}
			}
			return packet(data)
		}},
		{"no-route", func() *pkt.Packet { return packet(datagram("60.0.0.1")) }},
		{"no-output", func() *pkt.Packet { return packet(datagram("30.0.0.1")) }},
		{"queue-full", func() *pkt.Packet {
			// The first packet fills interface 1's one-slot FIFO.
			if !r.Forward(packet(datagram("20.0.0.1"))) {
				t.Fatal("the FIFO's first packet was dropped")
			}
			return packet(datagram("20.0.0.2"))
		}},
		{"plugin", func() *pkt.Packet { return packet(datagram("40.0.0.1")) }},
		{"plugin-fault", func() *pkt.Packet { return packet(datagram("50.0.0.1")) }},
	}
	for _, s := range steps {
		p := s.p()
		before := cells()
		if r.Forward(p) {
			t.Fatalf("%s: packet survived", s.reason)
		}
		moved := ""
		for reason, n := range cells() {
			switch d := n - before[reason]; {
			case d == 1 && moved == "":
				moved = reason
			case d != 0:
				t.Errorf("%s: %s moved by %d", s.reason, reason, d)
			}
		}
		if moved != s.reason {
			t.Errorf("%s: the counted reason is %q", s.reason, moved)
		}
		got := tel.Tracer().Snapshot(1)
		if len(got) != 1 {
			t.Fatalf("%s: no trace entry", s.reason)
		}
		if e := got[0]; e.Verdict != "dropped" || fmt.Sprint(e.DropReason) != moved {
			t.Errorf("%s: trace entry reads verdict=%q drop_reason=%q, want dropped %q", s.reason, e.Verdict, fmt.Sprint(e.DropReason), moved)
		}
	}
}
