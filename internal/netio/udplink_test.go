package netio

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

func buildUDP(t testing.TB, payload []byte) []byte {
	t.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("10.0.0.2"),
		SrcPort: 1111, DstPort: 2222, Payload: payload, TTL: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newLink builds a loopback-bound link on a fresh interface.
func newLink(t testing.TB, ifcCfg netdev.Config, cfg Config) (*netdev.Interface, *UDPLink) {
	t.Helper()
	ifc := netdev.NewInterface(0, ifcCfg)
	if cfg.Local == "" {
		cfg.Local = "127.0.0.1:0"
	}
	l, err := NewUDPLink(ifc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	return ifc, l
}

// dialTo returns a socket aimed at the link's local address.
func dialTo(t testing.TB, l *UDPLink) *net.UDPConn {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", l.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pollFor drains the interface ring until a packet appears or the
// deadline passes.
func pollFor(ifc *netdev.Interface, d time.Duration) *pkt.Packet {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if p := ifc.Poll(); p != nil {
			return p
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func TestRxDeliversWirePackets(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{}, Config{})
	l.Start()
	src := dialTo(t, l)

	data := buildUDP(t, []byte("over-the-wire"))
	if _, err := src.Write(data); err != nil {
		t.Fatal(err)
	}
	p := pollFor(ifc, 2*time.Second)
	if p == nil {
		t.Fatal("wire packet never reached the RX ring")
	}
	if string(p.Data) != string(data) {
		t.Error("payload corrupted in flight")
	}
	if !p.KeyValid || p.Key.Proto != pkt.ProtoUDP || p.Key.SrcPort != 1111 {
		t.Errorf("key not extracted on RX: %+v", p.Key)
	}
	if p.InIf != ifc.Index || p.OutIf != -1 || p.Stamp == 0 {
		t.Errorf("packet metadata: InIf=%d OutIf=%d stamp=%v", p.InIf, p.OutIf, p.Stamp)
	}
	if s := l.Stats(); s != (netdev.LinkStats{}) {
		t.Errorf("link counted a clean delivery: %+v", s)
	}
	if s := ifc.Stats(); s.RxPackets != 1 || s.RxBytes != uint64(len(data)) || s.RxDrops != 0 {
		t.Errorf("iface stats: %+v", s)
	}
}

func TestRxDropsMalformedAndOversize(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{MTU: 256}, Config{})
	l.Start()
	src := dialTo(t, l)

	if _, err := src.Write([]byte{0xff, 0x01, 0x02}); err != nil { // bad version
		t.Fatal(err)
	}
	if _, err := src.Write(make([]byte, 300)); err != nil { // beyond MTU
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := ifc.Stats()
		if s.RxDropMalformed == 1 && s.RxDropTooBig == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("drop counters never settled: %+v", ifc.Stats())
}

func TestRxRingFullCountsDrop(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{RxRing: 1}, Config{})
	l.Start()
	src := dialTo(t, l)

	data := buildUDP(t, []byte("x"))
	const sent = 8
	for range [sent]struct{}{} {
		if _, err := src.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := ifc.Stats()
		if s.RxPackets+s.RxDropRing == sent {
			if s.RxDropRing == 0 {
				t.Fatalf("ring of 1 absorbed %d packets without a drop", sent)
			}
			polled := 0
			for ifc.Poll() != nil {
				polled++
			}
			if polled != 1 {
				t.Errorf("ring held %d packets, want 1", polled)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("RX never drained the burst: %+v", ifc.Stats())
}

func TestTransmitWireReachesPeer(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{}, Config{})
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	l.Start()

	data := buildUDP(t, []byte("egress"))
	// Through the interface: Transmit routes to the attached driver.
	ifc.AttachDriver(l)
	if err := ifc.Transmit(&pkt.Packet{Data: data}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := sink.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != string(data) {
		t.Error("wire payload differs from the transmitted datagram")
	}
	if s := l.Stats(); s.TxPackets != 1 || s.TxBytes != uint64(len(data)) {
		t.Errorf("link TX stats: %+v", s)
	}
	if s := ifc.Stats(); s.TxPackets != 1 {
		t.Errorf("iface TX stats: %+v", s)
	}
}

// TestTransmitWireConcurrent: four goroutines transmit on one live
// link at once, traced and untraced packets alike. Every call is either
// written or refused with ErrRingFull, and counted as such before it
// returns; nothing is a tx-error; and every datagram the sink gets is
// whole — no send scratch was shared between two transmits.
func TestTransmitWireConcurrent(t *testing.T) {
	const goroutines, calls = 4, 250
	_, l := newLink(t, netdev.Config{}, Config{})
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if _, err := SizeReadBuffer(sink, RcvbufFor(netdev.DefaultMTU)); err != nil {
		t.Fatal(err)
	}
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	l.Start()

	// Each goroutine sends its own datagram, every other one traced
	// under the goroutine's own path ID.
	want := make(map[string]uint64)
	var wg sync.WaitGroup
	var refused atomic.Uint64
	for g := 0; g < goroutines; g++ {
		data := buildUDP(t, []byte(fmt.Sprintf("sender %d", g)))
		want[string(data)] = uint64(g + 1)
		plain := &pkt.Packet{Data: data}
		traced := tracedPacket(t)
		traced.Data, traced.Path.ID = data, uint64(g+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				p := plain
				if i%2 == 1 {
					p = traced
				}
				switch err := l.TransmitWire(p); err {
				case nil:
				case netdev.ErrRingFull:
					refused.Add(1)
				default:
					t.Errorf("TransmitWire: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	s := l.Stats()
	if s.TxPackets+refused.Load() != goroutines*calls || s.TxErrors != 0 {
		t.Fatalf("%d calls: %d written + %d refused, %d tx-errors", goroutines*calls, s.TxPackets, refused.Load(), s.TxErrors)
	}

	buf := make([]byte, 2048)
	for got := 0; got < int(s.TxPackets); got++ {
		sink.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		n, _, err := sink.ReadFromUDP(buf)
		if err != nil {
			break // the rest died in the sink's kernel buffer; not the link's to count
		}
		var c pkt.PathContext
		off, ok := pkt.DecodePath(buf[:n], &c)
		id, known := want[string(buf[off:n])]
		if !ok || !known || (off > 0 && c.ID != id) {
			t.Fatalf("datagram %d arrived mangled: % x", got, buf[:n])
		}
	}
}

// TestNoPeerCountsTxError: a datagram with no peer to go to is the
// link's tx-error, counted before TransmitWire returns, and the
// interface's sent datagram (nil).
func TestNoPeerCountsTxError(t *testing.T) {
	_, l := newLink(t, netdev.Config{}, Config{})
	l.Start()
	if err := l.TransmitWire(&pkt.Packet{Data: buildUDP(t, []byte("x"))}); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.TxErrors != 1 || s.TxPackets != 0 {
		t.Errorf("peerless transmit stats: %+v", s)
	}
}

// TestTransmitWireAfterStop: once the link has stopped, a transmit
// returns at once and counts a tx-error — the socket is closed, and
// nothing waits on it.
func TestTransmitWireAfterStop(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{}, Config{Peer: "127.0.0.1:9"})
	ifc.AttachDriver(l)
	l.Start()
	l.Stop()
	p := &pkt.Packet{Data: buildUDP(t, []byte("late"))}
	done := make(chan error, 1)
	go func() { done <- ifc.Transmit(p) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("transmit after Stop = %v, want nil (the link's tx-error)", err)
		}
	case <-time.After(time.Second):
		t.Fatal("TransmitWire blocked on a stopped link")
	}
	if s := l.Stats(); s.TxErrors != 1 || s.TxPackets != 0 {
		t.Errorf("link stats after a transmit on a stopped link: %+v", s)
	}
	if s := ifc.Stats(); s.TxPackets != 1 || s.TxDrops != 0 {
		t.Errorf("interface stats: %+v", s)
	}
}

func TestLifecycleIdempotent(t *testing.T) {
	_, l := newLink(t, netdev.Config{}, Config{})
	l.Start()
	l.Start()
	// A started link runs one goroutine, its RX loop; transmits run on
	// their callers.
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	if n := strings.Count(stacks, "created by github.com/routerplugins/eisr/internal/netio.(*UDPLink)."); n != 1 {
		t.Errorf("%d goroutines in the link, want 1 (the RX loop):\n%s", n, stacks)
	}
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		l.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not join the RX goroutine")
	}
	if l.LinkInfo().Running {
		t.Error("link still reports running after Stop")
	}
}

func TestStopWithoutStart(t *testing.T) {
	_, l := newLink(t, netdev.Config{}, Config{})
	l.Stop() // must not hang or panic
}

func TestLinkInfo(t *testing.T) {
	ifc, l := newLink(t, netdev.Config{Name: "wan0"}, Config{Peer: "127.0.0.1:9999"})
	l.Start()
	info := l.LinkInfo()
	if info.Iface != ifc.Index || info.Name != "wan0" || info.Kind != "udp" {
		t.Errorf("LinkInfo identity: %+v", info)
	}
	if info.Peer != "127.0.0.1:9999" {
		t.Errorf("peer = %q", info.Peer)
	}
	if !strings.HasPrefix(info.Local, "127.0.0.1:") || strings.HasSuffix(info.Local, ":0") {
		t.Errorf("local = %q, want a resolved loopback port", info.Local)
	}
	if !info.Running {
		t.Error("running link reports Running=false")
	}
}

func TestHostnamePeerResolves(t *testing.T) {
	_, l := newLink(t, netdev.Config{}, Config{})
	if err := l.SetPeer("localhost:4242"); err != nil {
		t.Fatalf("hostname peer rejected: %v", err)
	}
	if err := l.SetPeer("not an address"); err == nil {
		t.Error("garbage peer accepted")
	}
}

// TestRxSurvivesTransientReadErrors is the regression for the RX loop
// dying on a transient socket error (e.g. ICMP port-unreachable
// surfacing as ECONNREFUSED on a connected UDP socket): injected
// transient errors must be counted and journaled once per burst, the
// loop must keep reading and delivering, and only net.ErrClosed — the
// link stopping — may end it.
func TestRxSurvivesTransientReadErrors(t *testing.T) {
	const injectErrs = 5
	tel := telemetry.New()
	jr := tel.EnableJournal(64)
	ifc, l := newLink(t, netdev.Config{Name: "flaky0"}, Config{Tel: tel})

	transient := errors.New("recvfrom: connection refused")
	inner := l.readFrom
	var injected atomic.Int64
	l.readFrom = func(b []byte) (int, netip.AddrPort, error) {
		if injected.Add(1) <= injectErrs {
			return 0, netip.AddrPort{}, transient
		}
		return inner(b)
	}
	l.Start()
	src := dialTo(t, l)

	// The RX loop eats the injected burst first (the seam fails the
	// first reads), then must still deliver a real datagram.
	data := buildUDP(t, []byte("after the storm"))
	if _, err := src.Write(data); err != nil {
		t.Fatal(err)
	}
	p := pollFor(ifc, 2*time.Second)
	if p == nil {
		t.Fatalf("RX loop never recovered from transient errors: %+v", l.Stats())
	}
	if string(p.Data) != string(data) {
		t.Error("payload corrupted after error recovery")
	}
	s := l.Stats()
	if s.RxErrTransient != injectErrs {
		t.Errorf("RxErrTransient = %d, want %d", s.RxErrTransient, injectErrs)
	}
	if got := tel.CounterValue(`eisr_netio_rx_errors_total{iface="flaky0"}`); got != injectErrs {
		t.Errorf("eisr_netio_rx_errors_total = %d, want %d", got, injectErrs)
	}
	// The injected errors are back to back — one burst, one journal
	// entry, not one per error.
	bursts := 0
	for _, ev := range jr.Snapshot(0, 64) {
		if ev.Kind == telemetry.EvRxErrBurst {
			bursts++
			if !strings.Contains(ev.Detail, "flaky0") || !strings.Contains(ev.Detail, "refused") {
				t.Errorf("burst event detail = %q, want link name and error", ev.Detail)
			}
		}
	}
	if bursts != 1 {
		t.Errorf("journaled %d rx-error bursts, want 1", bursts)
	}

	// net.ErrClosed must still end the loop: Stop joins the RX
	// goroutine, so a loop that treats ErrClosed as transient hangs here.
	stopped := make(chan struct{})
	go func() { l.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("RX loop did not exit on net.ErrClosed")
	}
}

// TestRxDropSplitBadPathVsBadKey pins the split between a corrupt
// path-trace encapsulation, which only the wire sees and the link
// counts, and an unparseable bare datagram, which reached the interface
// and is its malformed drop — each counted in one place.
func TestRxDropSplitBadPathVsBadKey(t *testing.T) {
	tel := telemetry.New()
	ifc, l := newLink(t, netdev.Config{Name: "wan1"}, Config{Tel: tel})
	l.Start()
	src := dialTo(t, l)

	// Path magic with a truncated header: DecodePath fails → bad-path.
	if _, err := src.Write([]byte{pkt.PathMagic, pkt.PathVersion, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	// No encapsulation, bogus IP version: key extraction fails → the
	// interface's malformed drop.
	if _, err := src.Write([]byte{0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if l.Stats().RxDropBadPath == 1 && ifc.Stats().RxDropMalformed == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s, is := l.Stats(), ifc.Stats()
	if s.RxDropBadPath != 1 || is.RxDropMalformed != 1 {
		t.Fatalf("drop split never settled: link %+v iface %+v", s, is)
	}
	if is.RxDrops != 1 {
		t.Errorf("interface counted the bad path too: %+v", is)
	}
	if got := tel.CounterValue(`eisr_drops_total{layer="netio",iface="wan1",reason="bad-path"}`); got != 1 {
		t.Errorf("bad-path counter = %d, want 1", got)
	}
}

func TestTelemetryRegistersNetioFamilies(t *testing.T) {
	tel := telemetry.New()
	_, l := newLink(t, netdev.Config{Name: "wan0"}, Config{Tel: tel})
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	l.Start()
	if err := l.TransmitWire(&pkt.Packet{Data: buildUDP(t, []byte("metered"))}); err != nil {
		t.Fatal(err)
	}
	if n := tel.CounterValue(`eisr_netio_packets_total{iface="wan0",dir="tx"}`); n != 1 {
		t.Errorf("netio tx counter = %d, want 1", n)
	}
	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"eisr_netio_packets_total", `eisr_drops_total{layer="netio"`, "eisr_netio_rx_errors_total"} {
		if !strings.Contains(sb.String(), family) {
			t.Errorf("Prometheus exposition is missing %s", family)
		}
	}
}
