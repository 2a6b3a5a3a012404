package bench

// Packet ownership across the scheduler handoff: once a scheduling
// instance takes a packet, its drainer may transmit it and the pool may
// hand the same *pkt.Packet to the next received datagram, so the
// forwarding worker must not touch it again. Run under -race (make
// race), a stray read or write after the handoff is a reported race.

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/plugins"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/telemetry"
)

const ownRouterID = 7

// passInstance does nothing and keeps no state, so the two workers can
// share it (plugins.NullInstance counts its calls unsynchronized).
type passInstance struct{}

func (passInstance) InstanceName() string             { return "pass" }
func (passInstance) HandlePacket(p *pkt.Packet) error { return nil }

// TestTracedWorkersSchedHandoff forwards every packet traced — trace
// ring and in-band path context — through a two-worker router with DRR
// at the scheduling gate, while the run loop drains DRR onto an
// in-memory link and this goroutine injects into pooled packets and
// recycles what arrives. Every packet must arrive intact and in flow
// order, carrying this router's hop record; the trace ring must hold
// whole forwarded entries.
func TestTracedWorkersSchedHandoff(t *testing.T) {
	tel := telemetry.New()
	tel.EnableTrace(256, 1)
	tel.EnablePathTrace(ownRouterID, 0, 1)
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	a := aiu.New(aiu.Config{InitialFlows: 64, MaxFlows: 1024}, ipcore.DefaultGates...)
	r, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, AIU: a, Routes: routes, Tel: tel,
		Workers: 2, VerifyChecksums: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := netdev.NewInterface(0, netdev.Config{})
	out := netdev.NewInterface(1, netdev.Config{})
	sink := netdev.NewInterface(2, netdev.Config{RxRing: 4096})
	netdev.Connect(out, sink)
	r.AddInterface(in)
	r.AddInterface(out)
	for _, g := range []pcu.Type{pcu.TypeOptions, pcu.TypeSecurity, pcu.TypeRouting} {
		if _, err := a.Bind(g, aiu.MatchAll(), passInstance{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	drr := plugins.NewDRRPlugin(&plugins.Env{Router: r, AIU: a})
	msg := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: map[string]string{"iface": "1", "qlen": "4096"}}
	if err := drr.Callback(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(pcu.TypeSched, aiu.MatchAll(), msg.Reply.(*plugins.DRRInstance), nil); err != nil {
		t.Fatal(err)
	}

	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		r.Run(done)
		close(stopped)
	}()
	defer func() {
		close(done)
		<-stopped
	}()

	const flows, total, inflight = 16, 4000, 256
	next := make([]uint32, flows)
	got := 0
	receive := func() {
		for q := sink.Poll(); q != nil; q = sink.Poll() {
			got++
			f, seq := ownFlowSeq(t, q)
			if seq != next[f] {
				t.Fatalf("flow %d: got seq %d, want %d", f, seq, next[f])
			}
			next[f]++
			if !q.Path.Active || q.Path.NHops != 1 {
				t.Fatalf("path context lost: %+v", q.Path)
			}
			h := q.Path.Hops[0]
			if h.Router != ownRouterID || h.InIf != 0 || h.OutIf != 1 || h.Gates != 0b1111 ||
				h.Verdict != pkt.PathVerdictForwarded {
				t.Fatalf("hop record %+v", h)
			}
			q.ReleaseBuf()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for sent := 0; sent < total; {
		// Keep fewer packets in flight than the ingress pool holds, so
		// any fallback allocation below is a packet that never came back.
		if sent-got < inflight {
			f := sent % flows
			if in.Inject(ownDatagram(t, f, uint32(sent/flows))) == nil {
				sent++
			}
		}
		receive()
		if time.Now().After(deadline) {
			t.Fatalf("stalled after %d sent, %d received", sent, got)
		}
	}
	for got < total && time.Now().Before(deadline) {
		receive()
		time.Sleep(100 * time.Microsecond)
	}
	if got != total {
		t.Fatalf("received %d of %d (router %+v, in %+v)", got, total, r.Stats(), in.Stats())
	}
	if fb := in.Stats().MbufFallback + sink.Stats().MbufFallback; fb != 0 {
		t.Fatalf("%d mbuf fallbacks: packets leaked from their pools", fb)
	}

	traces := tel.Tracer().Snapshot(0)
	if len(traces) == 0 {
		t.Fatal("trace ring is empty")
	}
	for _, s := range traces {
		if s.Verdict != "forwarded" || s.OutIf != 1 || len(s.Hops) != len(ipcore.DefaultGates) ||
			s.Flow == "" || s.TotalNanos <= 0 {
			t.Fatalf("trace entry %+v", s)
		}
	}
}

// ownDatagram builds flow f's datagram number seq.
func ownDatagram(t *testing.T, f int, seq uint32) []byte {
	t.Helper()
	payload := make([]byte, 8)
	binary.BigEndian.PutUint32(payload, uint32(f))
	binary.BigEndian.PutUint32(payload[4:], seq)
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.AddrV4(0x0a000000 + uint32(f)), Dst: pkt.AddrV4(0x14000001),
		SrcPort: uint16(1000 + f), DstPort: 9, TTL: 64, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// ownFlowSeq decodes the (flow, seq) pair a datagram carries.
func ownFlowSeq(t *testing.T, p *pkt.Packet) (int, uint32) {
	t.Helper()
	h, err := pkt.ParseIPv4(p.Data)
	if err != nil {
		t.Fatal(err)
	}
	body := p.Data[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen]
	if len(body) != 8 {
		t.Fatalf("payload %x", body)
	}
	return int(binary.BigEndian.Uint32(body)), binary.BigEndian.Uint32(body[4:])
}
