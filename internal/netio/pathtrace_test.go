package netio

import (
	"net"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// tracedPacket builds a packet carrying an active one-hop context.
func tracedPacket(t testing.TB) *pkt.Packet {
	t.Helper()
	p := &pkt.Packet{Data: buildUDP(t, []byte("traced"))}
	p.Path.Active = true
	p.Path.ID = 0xABCD
	p.Path.AppendHop(pkt.PathHop{
		Router: 7, InIf: 0, OutIf: 1, Verdict: pkt.PathVerdictForwarded,
		QueueNs: 100, TotalNs: 250,
	})
	return p
}

func TestTransmitWireEncapsulatesContext(t *testing.T) {
	_, l := newLink(t, netdev.Config{}, Config{})
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	l.Start()

	p := tracedPacket(t)
	if err := l.TransmitWire(p); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := sink.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != pkt.PathMagic {
		t.Fatalf("frame does not start with the path magic: %#x", buf[0])
	}
	var c pkt.PathContext
	consumed, ok := pkt.DecodePath(buf[:n], &c)
	if !ok || consumed == 0 {
		t.Fatalf("sink cannot decode the encapsulation (consumed=%d ok=%v)", consumed, ok)
	}
	if c.ID != 0xABCD || c.NHops != 1 || c.Hops[0].Router != 7 {
		t.Fatalf("context corrupted in flight: %+v", c)
	}
	if string(buf[consumed:n]) != string(p.Data) {
		t.Error("inner datagram corrupted by the encapsulation")
	}
}

func TestRxDecapsulatesContext(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{}, Config{})
	l.Start()
	src := dialTo(t, l)

	inner := buildUDP(t, []byte("with-context"))
	var c pkt.PathContext
	c.ID = 0x1122334455667788
	c.AppendHop(pkt.PathHop{Router: 1, InIf: -1, OutIf: 1, Verdict: pkt.PathVerdictForwarded, TotalNs: 42})
	frame := make([]byte, pkt.MaxPathEncap+len(inner))
	n := pkt.EncodePath(&c, frame)
	n += copy(frame[n:], inner)
	if _, err := src.Write(frame[:n]); err != nil {
		t.Fatal(err)
	}
	p := pollFor(ifc, 2*time.Second)
	if p == nil {
		t.Fatal("encapsulated packet never reached the RX ring")
	}
	if string(p.Data) != string(inner) {
		t.Error("encapsulation not stripped from the delivered datagram")
	}
	if !p.Path.Active || p.Path.ID != c.ID || p.Path.NHops != 1 || p.Path.Hops[0].TotalNs != 42 {
		t.Errorf("context not recovered: %+v", p.Path)
	}
	if p.Path.StampedHere || p.Path.LocalGates != 0 {
		t.Error("router-local context state not cleared on decode")
	}
	if !p.KeyValid || p.Key.Proto != pkt.ProtoUDP {
		t.Errorf("key not extracted from the inner datagram: %+v", p.Key)
	}
}

func TestRxFutureVersionDeliversUntraced(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{}, Config{})
	l.Start()
	src := dialTo(t, l)

	inner := buildUDP(t, []byte("from-the-future"))
	// A minimal header claiming version 9: the receiver must skip it
	// whole and deliver the inner datagram untraced.
	hdr := make([]byte, 16)
	hdr[0] = pkt.PathMagic
	hdr[1] = 9
	hdr[2], hdr[3] = 0, 16
	frame := append(hdr, inner...)
	if _, err := src.Write(frame); err != nil {
		t.Fatal(err)
	}
	p := pollFor(ifc, 2*time.Second)
	if p == nil {
		t.Fatal("future-version frame never delivered")
	}
	if p.Path.Active {
		t.Error("unknown version must deliver untraced")
	}
	if string(p.Data) != string(inner) {
		t.Error("inner datagram corrupted")
	}
}

func TestRxMalformedEncapCountsDrop(t *testing.T) {
	_, l := newLink(t, netdev.Config{}, Config{})
	l.Start()
	src := dialTo(t, l)

	// Magic byte but a truncated header: malformed, not bare IP.
	if _, err := src.Write([]byte{pkt.PathMagic, 1, 0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if l.Stats().RxDropBadPath == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("malformed encap not counted: %+v", l.Stats())
}

func TestTransmitWireRestampsOwnHop(t *testing.T) {
	_, l := newLink(t, netdev.Config{}, Config{})
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	l.Start()

	p := tracedPacket(t)
	p.Path.StampedHere = true
	p.Stamp = pkt.Nanotime() - int64(time.Millisecond) // ≥1ms residency by now
	if err := l.TransmitWire(p); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := sink.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	var c pkt.PathContext
	if _, ok := pkt.DecodePath(buf[:n], &c); !ok {
		t.Fatal("cannot decode the re-stamped frame")
	}
	if c.Hops[0].TotalNs < uint64ToUint32(time.Millisecond.Nanoseconds()) {
		t.Errorf("hop total %dns not re-stamped to include TX queueing", c.Hops[0].TotalNs)
	}

	// A foreign context (StampedHere false) must go out unmodified.
	q := tracedPacket(t)
	q.Stamp = pkt.Nanotime() - int64(time.Millisecond)
	if err := l.TransmitWire(q); err != nil {
		t.Fatal(err)
	}
	sink.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err = sink.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pkt.DecodePath(buf[:n], &c); !ok {
		t.Fatal("cannot decode the transit frame")
	}
	if c.Hops[0].TotalNs != 250 {
		t.Errorf("foreign hop re-stamped: total=%dns, want 250", c.Hops[0].TotalNs)
	}
}

func uint64ToUint32(ns int64) uint32 { return pkt.ClampNs(ns) }

func TestRingBurstJournalsOnce(t *testing.T) {
	tel := telemetry.New()
	tel.EnableJournal(64)
	ifc, l := newLink(t, netdev.Config{RxRing: 1}, Config{Tel: tel})
	l.Start()
	src := dialTo(t, l)

	data := buildUDP(t, []byte("burst"))
	const sent = 16
	for range [sent]struct{}{} {
		if _, err := src.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := ifc.Stats()
		if s.RxPackets+s.RxDropRing == sent && s.RxDropRing > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if ifc.Stats().RxDropRing == 0 {
		t.Skip("ring of 1 absorbed the whole burst; nothing to journal")
	}
	var bursts int
	for _, ev := range tel.Journal().Snapshot(0, 0) {
		if ev.Kind == telemetry.EvRxRingBurst {
			bursts++
			if ev.Detail != ifc.Name {
				t.Errorf("burst event names %q, want %q", ev.Detail, ifc.Name)
			}
		}
	}
	// Many drops inside one quiet window journal exactly one onset.
	if bursts != 1 {
		t.Errorf("%d rx-ring-burst events, want 1 (burst gating)", bursts)
	}
}
