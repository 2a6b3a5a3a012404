package netdev

import (
	"strings"
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// fakeDriver records transmits and can refuse them with err (wire
// backpressure, a datagram the wire cannot carry).
type fakeDriver struct {
	started int
	stopped int
	sent    [][]byte
	err     error
}

func (d *fakeDriver) Start() { d.started++ }
func (d *fakeDriver) Stop()  { d.stopped++ }
func (d *fakeDriver) TransmitWire(p *pkt.Packet) error {
	if d.err != nil {
		return d.err
	}
	d.sent = append(d.sent, append([]byte(nil), p.Data...))
	return nil
}

func TestTransmitRoutesToDriver(t *testing.T) {
	i := NewInterface(0, Config{})
	peer := NewInterface(1, Config{})
	Connect(i, peer)
	d := &fakeDriver{}
	i.AttachDriver(d)
	if i.Driver() != Driver(d) {
		t.Fatal("Driver() did not return the attached driver")
	}
	if err := i.Transmit(&pkt.Packet{Data: buildUDP(t, 30)}); err != nil {
		t.Fatal(err)
	}
	if len(d.sent) != 1 {
		t.Fatalf("driver saw %d packets, want 1", len(d.sent))
	}
	// The wire, not the in-memory peer, carries the traffic.
	if peer.Poll() != nil {
		t.Error("packet leaked to the in-memory peer despite the driver")
	}
	if s := i.Stats(); s.TxPackets != 1 || s.TxDrops != 0 {
		t.Errorf("stats after driver transmit: %+v", s)
	}
}

// TestDriverBackpressureCountsDrop checks that a refused transmit is
// one TX drop under the driver's reason: ring full on backpressure, too
// big when the wire cannot carry the datagram.
func TestDriverBackpressureCountsDrop(t *testing.T) {
	for _, c := range []struct {
		err  error
		want Stats
	}{
		{ErrRingFull, Stats{TxDrops: 1, TxDropRing: 1}},
		{ErrTooBig, Stats{TxDrops: 1, TxDropTooBig: 1}},
	} {
		i := NewInterface(0, Config{})
		i.AttachDriver(&fakeDriver{err: c.err})
		if err := i.Transmit(&pkt.Packet{Data: buildUDP(t, 30)}); err != c.err {
			t.Fatalf("refused transmit error = %v, want %v", err, c.err)
		}
		if s := i.Stats(); s != c.want {
			t.Errorf("stats after %v: %+v, want %+v", c.err, s, c.want)
		}
	}
}

func TestDropReasonCounters(t *testing.T) {
	i := NewInterface(0, Config{MTU: 128, RxRing: 1})
	data := buildUDP(t, 10)

	i.SetUp(false)
	i.Inject(data)
	i.Transmit(&pkt.Packet{Data: data})
	i.SetUp(true)

	i.Inject(buildUDP(t, 200))                      // too big
	i.Inject([]byte{0xff, 0x00})                    // malformed
	i.Inject(data)                                  // fills the ring
	i.Inject(data)                                  // ring full
	i.Transmit(&pkt.Packet{Data: buildUDP(t, 200)}) // tx too big

	s := i.Stats()
	want := Stats{
		RxPackets: 1, RxBytes: uint64(len(data)),
		RxDrops: 4, RxDropRing: 1, RxDropTooBig: 1, RxDropDown: 1, RxDropMalformed: 1,
		TxDrops: 2, TxDropTooBig: 1, TxDropDown: 1,
	}
	if s != want {
		t.Errorf("stats = %+v\nwant    %+v", s, want)
	}
}

func TestTelemetryExportsIfaceDrops(t *testing.T) {
	tel := telemetry.New()
	i := NewInterface(0, Config{Name: "wan0", MTU: 128, RxRing: 1})
	i.SetTelemetry(tel)
	data := buildUDP(t, 10)
	i.Inject(data)             // rx ok
	i.Inject(data)             // ring full
	i.Inject(buildUDP(t, 200)) // too big
	i.Transmit(&pkt.Packet{Data: data})

	get := func(full string) uint64 { return tel.CounterValue(full) }
	if n := get(`eisr_netdev_packets_total{iface="wan0",dir="rx"}`); n != 1 {
		t.Errorf("rx packets metric = %d, want 1", n)
	}
	if n := get(`eisr_netdev_packets_total{iface="wan0",dir="tx"}`); n != 1 {
		t.Errorf("tx packets metric = %d, want 1", n)
	}
	if n := get(`eisr_drops_total{layer="netdev",iface="wan0",dir="rx",reason="ring-full"}`); n != 1 {
		t.Errorf("ring-full drop metric = %d, want 1", n)
	}
	if n := get(`eisr_drops_total{layer="netdev",iface="wan0",dir="rx",reason="too-big"}`); n != 1 {
		t.Errorf("too-big drop metric = %d, want 1", n)
	}
	// The families render on the Prometheus endpoint.
	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `eisr_drops_total{layer="netdev"`) {
		t.Error("Prometheus exposition is missing the interface's eisr_drops_total series")
	}
}

// Satellite regression: with a worker pool, a packet can sit in a worker
// queue while the RX ring wraps many times. ReserveMbufs must deepen the
// pool so the parked packet's buffer survives ring-depth × many injects.
func TestReserveMbufsSurvivesWraparound(t *testing.T) {
	const ring = 4
	const reserve = 64
	i := NewInterface(0, Config{RxRing: ring})
	i.ReserveMbufs(reserve)
	if got, want := i.BufDepth(), ring+reserve+1; got != want {
		t.Fatalf("BufDepth = %d, want %d", got, want)
	}

	marker, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("1.1.1.1"), Dst: pkt.MustParseAddr("2.2.2.2"),
		SrcPort: 7, DstPort: 7, Payload: []byte("parked-in-a-worker-queue"),
	})
	if err := i.Inject(marker); err != nil {
		t.Fatal(err)
	}
	parked := i.Poll() // steered to a worker, sits in its queue
	h, _ := pkt.ParseIPv4(parked.Data)
	wantBody := string(parked.Data[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen])

	// Meanwhile the RX ring keeps turning: more injects than the ring
	// depth but fewer than the reserved pool.
	filler := buildUDP(t, 32)
	for n := 0; n < ring+reserve-1; n++ {
		if err := i.Inject(filler); err != nil {
			t.Fatal(err)
		}
		i.Poll()
	}

	body := parked.Data[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen]
	if string(body) != wantBody {
		t.Errorf("parked packet corrupted: %q want %q", body, wantBody)
	}
}

// Without the reserve, the same backlog overwrites the parked packet —
// the regression the reserve exists to prevent. This documents the
// hazard so the guard above cannot silently rot.
func TestWraparoundWithoutReserveCorrupts(t *testing.T) {
	const ring = 4
	i := NewInterface(0, Config{RxRing: ring})
	marker, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("1.1.1.1"), Dst: pkt.MustParseAddr("2.2.2.2"),
		SrcPort: 7, DstPort: 7, Payload: []byte("parked-in-a-worker-queue"),
	})
	if err := i.Inject(marker); err != nil {
		t.Fatal(err)
	}
	parked := i.Poll()
	h, _ := pkt.ParseIPv4(parked.Data)
	before := string(parked.Data[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen])

	filler := buildUDP(t, 64)
	for n := 0; n < ring+1; n++ {
		if err := i.Inject(filler); err != nil {
			t.Fatal(err)
		}
		i.Poll()
	}
	after := string(parked.Data[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen])
	if before == after {
		t.Skip("pool did not wrap onto the parked buffer; hazard not exercised")
	}
}

// ReserveMbufs regrows an already-materialized pool.
func TestReserveMbufsRegrowsLivePool(t *testing.T) {
	i := NewInterface(0, Config{RxRing: 2})
	if err := i.Inject(buildUDP(t, 16)); err != nil { // materializes the pool
		t.Fatal(err)
	}
	i.Poll()
	i.ReserveMbufs(32)
	if got, want := i.BufDepth(), 2+32+1; got != want {
		t.Fatalf("BufDepth after regrow = %d, want %d", got, want)
	}
	// Smaller reserves never shrink the pool.
	i.ReserveMbufs(8)
	if got, want := i.BufDepth(), 2+32+1; got != want {
		t.Fatalf("BufDepth after smaller reserve = %d, want %d", got, want)
	}
}
