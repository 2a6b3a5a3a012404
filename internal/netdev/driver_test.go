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

// A packet a worker has polled sits in its vector while its RX ring
// keeps turning over. SetQueues sizes the pool to cover every ring plus
// each worker's vector, so the polled packet's buffer survives ring
// depth plus vector-1 more receives.
func TestQueueMbufsSurviveWraparound(t *testing.T) {
	const ring = 4
	const vector = 64
	i := NewInterface(0, Config{RxRing: ring})
	i.SetQueues(1, vector)
	if got, want := i.BufDepth(), ring+vector+1; got != want {
		t.Fatalf("BufDepth = %d, want %d", got, want)
	}

	marker, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("1.1.1.1"), Dst: pkt.MustParseAddr("2.2.2.2"),
		SrcPort: 7, DstPort: 7, Payload: []byte("parked-in-a-worker-vector"),
	})
	if err := i.Inject(marker); err != nil {
		t.Fatal(err)
	}
	parked := i.Poll() // polled into a worker's vector, not yet forwarded
	h, _ := pkt.ParseIPv4(parked.Data)
	wantBody := string(parked.Data[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen])

	// Meanwhile the RX ring keeps turning: more receives than the ring
	// depth but fewer than the pool covers.
	filler := buildUDP(t, 32)
	for n := 0; n < ring+vector-1; n++ {
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

// SetQueues gives each worker its own RX ring: Receive puts a flow's
// packets on ring pkt.SteerWorker(hash, n), PollRing(q) returns only
// ring q's packets, Poll any ring's, and a full ring sheds at netdev as
// ring-full while its siblings keep accepting. The mbuf pool covers
// every ring plus each worker's vector, on a pool already in use too,
// and its depth never shrinks.
func TestSetQueuesSizesRingsAndPool(t *testing.T) {
	const ring, workers, vector = 8, 4, 16
	i := NewInterface(0, Config{RxRing: ring})
	if err := i.Inject(buildUDP(t, 16)); err != nil { // materializes the pool
		t.Fatal(err)
	}
	i.Poll().ReleaseBuf()
	i.SetQueues(workers, vector)
	if got := i.Queues(); got != workers {
		t.Fatalf("Queues = %d, want %d", got, workers)
	}
	if got, want := i.BufDepth(), workers*(ring+vector)+1; got != want {
		t.Fatalf("BufDepth = %d, want %d", got, want)
	}
	i.SetQueues(workers, 1) // a smaller vector never shrinks the pool
	if got, want := i.BufDepth(), workers*(ring+vector)+1; got != want {
		t.Fatalf("BufDepth after a smaller SetQueues = %d, want %d", got, want)
	}

	// One flow per worker.
	flows := make([][]byte, workers)
	for port, found := 1, 0; found < workers; port++ {
		d, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("10.0.0.2"),
			SrcPort: uint16(port), DstPort: 9, Payload: make([]byte, 8),
		})
		if err != nil {
			t.Fatal(err)
		}
		k, err := pkt.ExtractKey(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if q := pkt.SteerWorker(pkt.FlowHash(k), workers); flows[q] == nil {
			flows[q] = d
			found++
		}
	}
	// Fill worker 0's ring past its depth; the others take one each.
	for n := 0; n < ring+3; n++ {
		err := i.Inject(flows[0])
		if n < ring && err != nil {
			t.Fatalf("inject %d: %v", n, err)
		}
		if n >= ring && err != ErrRingFull {
			t.Fatalf("inject %d into a full ring: %v, want ErrRingFull", n, err)
		}
	}
	for q := 1; q < workers; q++ {
		if err := i.Inject(flows[q]); err != nil {
			t.Fatalf("worker %d's ring refused a packet beside a full sibling: %v", q, err)
		}
	}
	if got := i.Stats().RxDropRing; got != 3 {
		t.Errorf("RxDropRing = %d, want 3", got)
	}
	for q := workers - 1; q >= 0; q-- {
		want := 1
		if q == 0 {
			want = ring
		}
		got := 0
		for p := i.PollRing(q); p != nil; p = i.PollRing(q) {
			if s := pkt.SteerWorker(p.Hash, workers); s != q {
				t.Fatalf("ring %d held a packet steered to %d", q, s)
			}
			p.ReleaseBuf()
			got++
		}
		if got != want {
			t.Errorf("ring %d held %d packets, want %d", q, got, want)
		}
	}
	if i.Poll() != nil {
		t.Error("Poll found a packet after every ring was drained")
	}
	if err := i.Inject(flows[2]); err != nil {
		t.Fatal(err)
	}
	if p := i.Poll(); p == nil || pkt.SteerWorker(p.Hash, workers) != 2 {
		t.Error("Poll did not find the packet on ring 2")
	}
}
