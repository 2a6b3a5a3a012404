package eisr

import (
	"net"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
)

// newTracedRouter assembles a telemetry-enabled router for the line
// topology: interface 0 "lan" (optionally owning a local address so
// routing terminates there), interface 1 "wan", default route out 1.
func newTracedRouter(t *testing.T, id uint32, sample int, localAddr string) *Router {
	t.Helper()
	r, err := New(Options{
		VerifyChecksums: true, Telemetry: true,
		RouterID: id, PathSample: sample,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddInterface(0, "lan", localAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddInterface(1, "wan", ""); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRoute("0.0.0.0/0 dev 1"); err != nil {
		t.Fatal(err)
	}
	return r
}

// traceProbe builds one probe datagram addressed to the terminating
// router's local address. One source port keeps every probe on one
// flow, so with sample=1 at the origin every probe carries a context.
func traceProbe(t testing.TB, seq uint32) []byte {
	t.Helper()
	payload := []byte{byte(seq >> 24), byte(seq >> 16), byte(seq >> 8), byte(seq)}
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("30.0.0.1"),
		SrcPort: 4242, DstPort: 9, Payload: payload, TTL: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The acceptance topology for in-band path tracing: a three-router
// line A -> B -> C over real UDP sockets, contexts originated at A,
// spans folded at C on local delivery. Every span must carry exactly
// one hop record per router, in path order, with the per-hop
// residencies summing to the span total.
func TestPathTraceThreeRouterLine(t *testing.T) {
	a := newTracedRouter(t, 1, 1, "")
	b := newTracedRouter(t, 2, 0, "")
	c := newTracedRouter(t, 3, 0, "30.0.0.1")

	linkA, err := a.AttachUDPLink(1, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	linkBIn, err := b.AttachUDPLink(0, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	linkBOut, err := b.AttachUDPLink(1, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	linkCIn, err := c.AttachUDPLink(0, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := linkA.SetPeer(linkBIn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := linkBOut.SetPeer(linkCIn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Router{a, b, c} {
		r.Start()
		defer r.Stop()
	}

	const packets = 200
	pt := c.Telemetry.PathTracer()
	ingress := a.Interface(0)
	for i := 0; i < packets; i++ {
		// Window on the terminating router's span count so the wire
		// rings never overflow (a wire drop would lose that span).
		windowDeadline := time.Now().Add(200 * time.Millisecond)
		for uint64(i)-pt.Status().Spans >= 64 && time.Now().Before(windowDeadline) {
			time.Sleep(100 * time.Microsecond)
		}
		data := traceProbe(t, uint32(i))
		for {
			err := ingress.Inject(data)
			if err != netdev.ErrRingFull {
				if err != nil {
					t.Fatalf("inject %d: %v", i, err)
				}
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for pt.Status().Spans < packets && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	folded := pt.Status().Spans
	if folded != packets {
		t.Fatalf("C folded %d/%d spans\nlinkA: %+v\nlinkB.in: %+v\nlinkB.out: %+v\nlinkC.in: %+v",
			folded, packets, linkA.Stats(), linkBIn.Stats(), linkBOut.Stats(), linkCIn.Stats())
	}
	if got := a.Telemetry.PathTracer().Status().Sampled; got != packets {
		t.Errorf("A originated %d contexts, want %d", got, packets)
	}

	spans := pt.SnapshotSpans(0)
	if len(spans) == 0 {
		t.Fatal("span ring exported nothing")
	}
	for _, s := range spans {
		if len(s.Hops) != 3 {
			t.Fatalf("span %s has %d hops, want exactly one per router: %+v",
				s.TraceID, len(s.Hops), s.Hops)
		}
		for i, want := range []struct {
			router  uint32
			verdict string
		}{{1, "forwarded"}, {2, "forwarded"}, {3, "delivered"}} {
			h := s.Hops[i]
			if h.Router != want.router || h.Verdict != want.verdict {
				t.Errorf("span %s hop %d = r%d/%s, want r%d/%s",
					s.TraceID, i, h.Router, h.Verdict, want.router, want.verdict)
			}
		}
		var sum uint64
		for _, h := range s.Hops {
			sum += uint64(h.TotalNs)
		}
		if sum != s.TotalNs {
			t.Errorf("span %s hop residencies sum to %dns, span total is %dns",
				s.TraceID, sum, s.TotalNs)
		}
	}

	// The per-hop-count latency histogram on C observed every span
	// under the hops="3" label.
	if m, ok := c.Telemetry.Find(`eisr_path_latency_ns{hops="3"}`); !ok || m.Hist == nil || m.Hist.Count != packets {
		t.Errorf("path latency histogram: ok=%v %+v", ok, m)
	}
}

// Untraced-peer interop: a legacy peer that has never heard of the
// trace header sends bare IP frames, and a future peer sends a header
// version this build does not know. Both must forward through a traced
// router unharmed — delivered at C, no spans minted for them.
func TestPathTraceUntracedPeerInterop(t *testing.T) {
	b := newTracedRouter(t, 2, 0, "")
	c := newTracedRouter(t, 3, 0, "30.0.0.1")

	linkBIn, err := b.AttachUDPLink(0, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	linkBOut, err := b.AttachUDPLink(1, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	linkCIn, err := c.AttachUDPLink(0, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := linkBOut.SetPeer(linkCIn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Stop()
	c.Start()
	defer c.Stop()

	peer, err := net.Dial("udp", linkBIn.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	const packets = 50
	for i := 0; i < packets; i++ {
		// Bare IP, exactly as a pre-eisrpath build puts it on the wire.
		if _, err := peer.Write(traceProbe(t, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	// And one frame claiming a header version from the future: the
	// whole header is skipped and the datagram delivered untraced.
	inner := traceProbe(t, packets)
	hdr := make([]byte, 16)
	hdr[0] = pkt.PathMagic
	hdr[1] = 99
	hdr[2], hdr[3] = 0, 16
	if _, err := peer.Write(append(hdr, inner...)); err != nil {
		t.Fatal(err)
	}

	const want = packets + 1
	deadline := time.Now().Add(30 * time.Second)
	for c.Core.Stats().Delivered < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.Core.Stats().Delivered; got != want {
		t.Fatalf("C delivered %d/%d untraced datagrams\nlinkB.in: %+v\nlinkC.in: %+v",
			got, want, linkBIn.Stats(), linkCIn.Stats())
	}
	for name, r := range map[string]*Router{"B": b, "C": c} {
		if n := r.Telemetry.PathTracer().Status().Spans; n != 0 {
			t.Errorf("router %s folded %d spans from untraced traffic", name, n)
		}
	}
	if s, is := linkBIn.Stats(), b.Interface(0).Stats(); s.RxDropBadPath+is.RxDropMalformed != 0 {
		t.Errorf("legacy frames counted as malformed: link %+v iface %+v", s, is)
	}
}

// A context that already carries MaxPathHops hops takes no hop from the
// next router, so that router must not re-stamp the last hop at wire
// egress: the hop is the previous router's, and its residency is that
// router's measurement. The probe enters B over a UDP link with a full
// context and leaves over another to a bare socket; the last hop must
// arrive with its total unchanged.
func TestPathTraceFullContextKeepsLastHop(t *testing.T) {
	b := newTracedRouter(t, 2, 0, "")
	linkBIn, err := b.AttachUDPLink(0, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	linkBOut, err := b.AttachUDPLink(1, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := linkBOut.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Stop()

	// Egress re-stamps a hop only upward, to this router's residency,
	// which is never under a nanosecond.
	const lastTotal = 1
	ctx := pkt.PathContext{Active: true, ID: 77}
	for h := 0; h < pkt.MaxPathHops; h++ {
		ctx.AppendHop(pkt.PathHop{Router: uint32(100 + h), Verdict: pkt.PathVerdictForwarded,
			QueueNs: 10, TotalNs: uint32(1000 + h)})
	}
	ctx.Last().TotalNs = lastTotal
	frame := make([]byte, ctx.EncodedPathLen())
	encodePathOrFail(t, &ctx, frame)
	frame = append(frame, traceProbe(t, 1)...)

	peer, err := net.Dial("udp", linkBIn.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if _, err := peer.Write(frame); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, _, err := sink.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("no frame left B: %v\nlinkB.in: %+v\nlinkB.out: %+v", err, linkBIn.Stats(), linkBOut.Stats())
	}
	var got pkt.PathContext
	if _, ok := pkt.DecodePath(buf[:n], &got); !ok || !got.Active {
		t.Fatal("the forwarded frame carries no path context")
	}
	if got.NHops != pkt.MaxPathHops {
		t.Fatalf("forwarded context has %d hops, want %d", got.NHops, pkt.MaxPathHops)
	}
	if h := got.Last(); h.Router != 100+pkt.MaxPathHops-1 || h.TotalNs != lastTotal {
		t.Errorf("last hop r%d total %dns, want r%d total %dns (re-stamped by a router that added no hop)",
			h.Router, h.TotalNs, 100+pkt.MaxPathHops-1, lastTotal)
	}
}

// encodePathOrFail encodes c into dst, which must be large enough.
func encodePathOrFail(t *testing.T, c *pkt.PathContext, dst []byte) {
	t.Helper()
	if pkt.EncodePath(c, dst) != len(dst) {
		t.Fatal("EncodePath wrote a short header")
	}
}
