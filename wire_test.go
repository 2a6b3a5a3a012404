package eisr

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/netio"
	"github.com/routerplugins/eisr/internal/pkt"
)

// wireMagic marks test payloads so the sink can reject noise.
const wireMagic = 0xE15E0001

// newWireRouter assembles a plugin-mode router with two small-MTU
// interfaces (so link buffer pools stay modest under -race) and a
// default route out interface 1.
func newWireRouter(t *testing.T, workers int) *Router {
	t.Helper()
	r, err := New(Options{VerifyChecksums: true, Telemetry: true, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for idx, name := range []string{"lan", "wan"} {
		ifc := netdev.NewInterface(int32(idx), netdev.Config{Name: name, MTU: 1500})
		r.Core.AddInterface(ifc)
	}
	if err := r.AddRoute("0.0.0.0/0 dev 1"); err != nil {
		t.Fatal(err)
	}
	return r
}

// wirePayload builds the UDP datagram for one sequence number. A few
// distinct source ports spread the traffic over several flows so the
// classifier, flow cache, and (with workers) flow steering all engage.
func wirePayload(t testing.TB, seq uint32) []byte {
	t.Helper()
	payload := make([]byte, 8)
	binary.BigEndian.PutUint32(payload, wireMagic)
	binary.BigEndian.PutUint32(payload[4:], seq)
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.2"),
		SrcPort: uint16(1000 + seq%8), DstPort: 9, Payload: payload, TTL: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runWireTopology drives the end-to-end wire path: packets injected on
// router A traverse A's gate/classifier path (a drr instance bound
// match-all at the sched gate), leave A on a netio UDP link, arrive at
// router B over a real loopback socket, are forwarded by B, and exit on
// a second UDP link to a test sink that verifies every payload.
func runWireTopology(t *testing.T, workers, packets int) {
	a := newWireRouter(t, workers)
	b := newWireRouter(t, workers)

	// The gate plugin on A: drr at the sched gate, match-all filter.
	if err := a.LoadPlugin("drr"); err != nil {
		t.Fatal(err)
	}
	inst, err := a.CreateInstance("drr", map[string]string{"iface": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Register("drr", inst, map[string]string{"filter": "*, *, *, *, *, *", "weight": "2"}); err != nil {
		t.Fatal(err)
	}

	// Wire: A.wan -> B.lan -> (B forwards) -> B.wan -> sink socket.
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
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	// The sink is a hop too: it gets the links' receive buffer.
	sinkRcvbuf, err := netio.SizeReadBuffer(sink, netio.RcvbufFor(1500))
	if err != nil {
		t.Fatal(err)
	}
	if err := linkA.SetPeer(linkBIn.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := linkBOut.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	a.Start()
	defer a.Stop()
	b.Start()
	defer b.Stop()

	// The sink: count and verify every delivered payload.
	var received atomic.Int64
	seen := make([]atomic.Bool, packets)
	sinkErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 2048)
		for {
			sink.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, _, err := sink.ReadFromUDP(buf)
			if err != nil {
				return // deadline or closed: the main goroutine decides
			}
			h, err := pkt.ParseIPv4(buf[:n])
			if err != nil {
				sinkErr <- fmt.Errorf("sink got a non-IP datagram: %v", err)
				return
			}
			body := buf[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen]
			if len(body) != 8 || binary.BigEndian.Uint32(body) != wireMagic {
				sinkErr <- fmt.Errorf("sink payload corrupted: % x", body)
				return
			}
			seq := binary.BigEndian.Uint32(body[4:])
			if seq >= uint32(packets) {
				sinkErr <- fmt.Errorf("sink got out-of-range seq %d", seq)
				return
			}
			if seen[seq].Swap(true) {
				continue // duplicate (possible under retry), not an error
			}
			received.Add(1)
		}
	}()

	// The ledger a stall or a loss prints: every link (its kernel
	// rcvbuf drops included), interface and core, and the sink's own
	// kernel drops.
	ingress := a.Interface(0)
	ledger := func() string {
		var w strings.Builder
		for _, l := range []struct {
			name string
			link *netio.UDPLink
		}{{"linkA", linkA}, {"linkB.in", linkBIn}, {"linkB.out", linkBOut}} {
			fmt.Fprintf(&w, "%s: %+v\n", l.name, l.link.Stats())
		}
		for _, i := range []struct {
			name string
			ifc  *netdev.Interface
		}{{"A.lan", ingress}, {"A.wan", a.Interface(1)}, {"B.lan", b.Interface(0)}, {"B.wan", b.Interface(1)}} {
			fmt.Fprintf(&w, "%s: %+v\n", i.name, i.ifc.Stats())
		}
		sinkDrops, err := netio.SocketDrops(sink)
		fmt.Fprintf(&w, "A core: %+v\nB core: %+v\nsink kernel rcvbuf drops: %d (%v)",
			a.Core.Stats(), b.Core.Stats(), sinkDrops, err)
		return w.String()
	}

	// The source: windowed injection into A's ingress ring, so bursts
	// never outrun the 512-slot rings or the smallest socket receive
	// buffer anywhere downstream. A window that stops moving means a
	// packet was lost: fail at once with the ledger.
	granted := []int{sinkRcvbuf}
	for _, li := range append(a.LinksReport(), b.LinksReport()...) {
		granted = append(granted, li.RcvbufGranted)
	}
	window := int64(netio.Window(len(wirePayload(t, 0)), 256, granted...))
	for i := 0; i < packets; i++ {
		if err := netio.AwaitWindow(int64(i), received.Load, window, netio.WindowStall); err != nil {
			select {
			case err := <-sinkErr:
				t.Fatal(err)
			default:
			}
			t.Fatalf("window of %d: %v\n%s", window, err, ledger())
		}
		data := wirePayload(t, uint32(i))
		for {
			err := ingress.Inject(data)
			if err == nil {
				break
			}
			if err != netdev.ErrRingFull {
				t.Fatalf("inject %d: %v", i, err)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Wait for the rest on progress, not on a deadline: a stall ends
	// the wait and the count below reports the loss.
	if err := netio.AwaitWindow(int64(packets), received.Load, 1, netio.WindowStall); err != nil {
		t.Log(err)
	}
	select {
	case err := <-sinkErr:
		t.Fatal(err)
	default:
	}
	if got := received.Load(); got != int64(packets) {
		t.Fatalf("sink got %d/%d packets\n%s", got, packets, ledger())
	}

	// Zero unexplained drops anywhere on the path: every interface's RX
	// and TX drops (a ring-full refusal at A's ingress is the source's
	// backpressure, retried above), and the wire-only events on every
	// link. No interface ran its mbuf pool dry.
	for name, ifc := range map[string]*netdev.Interface{
		"A.lan": ingress, "A.wan": a.Interface(1), "B.lan": b.Interface(0), "B.wan": b.Interface(1),
	} {
		s := ifc.Stats()
		unexplained := s.RxDrops + s.TxDrops
		if ifc == ingress {
			unexplained -= s.RxDropRing
		}
		if unexplained != 0 || s.MbufFallback != 0 {
			t.Errorf("%s dropped packets or fell back to the heap: %+v", name, s)
		}
	}
	for name, s := range map[string]netdev.LinkStats{
		"linkA": linkA.Stats(), "linkB.in": linkBIn.Stats(), "linkB.out": linkBOut.Stats(),
	} {
		if s.RxDropBadPath+s.TxErrors != 0 {
			t.Errorf("%s dropped wire packets: %+v", name, s)
		}
		if s.RxDropRcvbuf != 0 {
			t.Errorf("%s lost datagrams in its kernel receive buffer: %+v", name, s)
		}
	}
	// Wire TX conservation: a link writes on the transmitting worker,
	// so every datagram an interface handed its link is written or is
	// the link's tx-error once TransmitWire returns — nothing waits in
	// a queue between them.
	for _, h := range []struct {
		name string
		ifc  *netdev.Interface
		link *netio.UDPLink
	}{{"A.wan", a.Interface(1), linkA}, {"B.lan", b.Interface(0), linkBIn}, {"B.wan", b.Interface(1), linkBOut}} {
		ls, is := h.link.Stats(), h.ifc.Stats()
		if is.TxPackets != ls.TxPackets+ls.TxErrors {
			t.Errorf("%s: interface sent %d, its link wrote %d with %d tx-errors", h.name, is.TxPackets, ls.TxPackets, ls.TxErrors)
		}
	}

	// The packets went through A's full gate/classifier path: the sched
	// gate dispatched every one and the flow cache engaged.
	rep := a.StatsReport()
	var schedDispatch uint64
	for _, g := range rep.Gates {
		if g.Gate == "sched" {
			schedDispatch = g.Dispatch
		}
	}
	if schedDispatch < uint64(packets) {
		t.Errorf("sched gate dispatched %d packets, want >= %d", schedDispatch, packets)
	}
	if rep.FlowCache == nil || rep.FlowCache.Hits == 0 {
		t.Errorf("flow cache never hit: %+v", rep.FlowCache)
	}
	// And the wire shows up in the operator's link report.
	links := rep.Links
	if len(links) != 1 || links[0].Stats.TxPackets < uint64(packets) {
		t.Errorf("links report: %+v", links)
	}
}

// The acceptance-criteria topology: >= 10k UDP-encapsulated packets
// across two routers over real sockets, zero unexplained drops.
func TestWireTwoRouterTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-packet wire exchange")
	}
	runWireTopology(t, 0, 10000)
}

// The same topology with the parallel forwarding engine on — run under
// -race by `make race` (this package is in the race list).
func TestWireTwoRouterTopologyWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("wire exchange with forwarding workers")
	}
	runWireTopology(t, 4, 3000)
}
