package netdev

import (
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

func buildUDP(t *testing.T, n int) []byte {
	t.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("10.0.0.2"),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInjectPoll(t *testing.T) {
	i := NewInterface(0, Config{RxRing: 4})
	if err := i.Inject(buildUDP(t, 100)); err != nil {
		t.Fatal(err)
	}
	p := i.Poll()
	if p == nil {
		t.Fatal("Poll returned nil")
	}
	if p.InIf != 0 || !p.KeyValid || p.Stamp.IsZero() {
		t.Errorf("packet metadata: %+v", p)
	}
	if i.Poll() != nil {
		t.Error("ring should be empty")
	}
	s := i.Stats()
	if s.RxPackets != 1 || s.RxBytes == 0 {
		t.Errorf("stats: %+v", s)
	}
}

func TestRingOverflow(t *testing.T) {
	i := NewInterface(0, Config{RxRing: 2})
	data := buildUDP(t, 10)
	if err := i.Inject(data); err != nil {
		t.Fatal(err)
	}
	if err := i.Inject(data); err != nil {
		t.Fatal(err)
	}
	if err := i.Inject(data); err != ErrRingFull {
		t.Errorf("overflow error = %v", err)
	}
	if s := i.Stats(); s.RxDrops != 1 {
		t.Errorf("drops = %d", s.RxDrops)
	}
}

func TestMTUEnforced(t *testing.T) {
	i := NewInterface(0, Config{MTU: 128})
	if err := i.Inject(buildUDP(t, 200)); err != ErrTooBig {
		t.Errorf("oversize inject error = %v", err)
	}
	j := NewInterface(1, Config{MTU: 128})
	p := &pkt.Packet{Data: buildUDP(t, 200)}
	if err := j.Transmit(p); err != ErrTooBig {
		t.Errorf("oversize transmit error = %v", err)
	}
}

func TestInterfaceDown(t *testing.T) {
	i := NewInterface(0, Config{})
	i.SetUp(false)
	if i.Up() {
		t.Error("interface should be down")
	}
	if err := i.Inject(buildUDP(t, 10)); err != ErrDown {
		t.Errorf("inject on down if = %v", err)
	}
	if err := i.Transmit(&pkt.Packet{Data: buildUDP(t, 10)}); err != ErrDown {
		t.Errorf("transmit on down if = %v", err)
	}
}

func TestConnectDelivers(t *testing.T) {
	a := NewInterface(0, Config{})
	b := NewInterface(1, Config{})
	Connect(a, b)
	p := &pkt.Packet{Data: buildUDP(t, 50)}
	if err := a.Transmit(p); err != nil {
		t.Fatal(err)
	}
	got := b.Poll()
	if got == nil {
		t.Fatal("peer did not receive")
	}
	if got.InIf != 1 {
		t.Errorf("peer InIf = %d", got.InIf)
	}
	if !got.KeyValid || got.Key.Proto != pkt.ProtoUDP {
		t.Errorf("peer key: %+v", got.Key)
	}
	if a.Stats().TxPackets != 1 || b.Stats().RxPackets != 1 {
		t.Error("link accounting wrong")
	}
}

func TestBadPacketDropped(t *testing.T) {
	i := NewInterface(0, Config{})
	if err := i.Inject([]byte{0xff, 0x00}); err == nil {
		t.Error("garbage should fail key extraction")
	}
	if s := i.Stats(); s.RxDrops != 1 {
		t.Errorf("drops = %d", s.RxDrops)
	}
}

func TestRecvBlocksUntilDone(t *testing.T) {
	i := NewInterface(0, Config{})
	done := make(chan struct{})
	res := make(chan *pkt.Packet, 1)
	go func() { res <- i.Recv(done) }()
	close(done)
	select {
	case p := <-res:
		if p != nil {
			t.Errorf("Recv after done = %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not return after done")
	}
}

func TestCustomClock(t *testing.T) {
	fixed := time.Unix(42, 0)
	i := NewInterface(0, Config{Clock: func() time.Time { return fixed }})
	i.Inject(buildUDP(t, 10))
	if p := i.Poll(); !p.Stamp.Equal(fixed) {
		t.Errorf("stamp = %v", p.Stamp)
	}
}

func TestMbufRingRecycling(t *testing.T) {
	// Inject recycles buffers from a fixed descriptor ring; within the
	// ring depth, earlier packets' data stays intact.
	i := NewInterface(0, Config{RxRing: 4})
	payloads := []string{"aaaa", "bbbb", "cccc", "dddd"}
	var got []*pkt.Packet
	for _, s := range payloads {
		data, _ := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("1.1.1.1"), Dst: pkt.MustParseAddr("2.2.2.2"),
			SrcPort: 1, DstPort: 2, Payload: []byte(s),
		})
		if err := i.Inject(data); err != nil {
			t.Fatal(err)
		}
		got = append(got, i.Poll())
	}
	for k, p := range got {
		h, _ := pkt.ParseIPv4(p.Data)
		body := p.Data[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen]
		if string(body) != payloads[k] {
			t.Errorf("packet %d payload %q want %q", k, body, payloads[k])
		}
	}
	// The caller's slice is not retained: mutating it leaves the
	// injected packet untouched.
	data, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("1.1.1.1"), Dst: pkt.MustParseAddr("2.2.2.2"),
		SrcPort: 9, DstPort: 9, Payload: []byte("orig"),
	})
	if err := i.Inject(data); err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 'X'
	p := i.Poll()
	if p.Data[len(p.Data)-1] == 'X' {
		t.Error("driver aliased the caller's buffer")
	}
}

// TestMbufPoolResetsRecycledPacket: a released packet goes back on the
// free list whole, and the next Inject hands out the same *pkt.Packet
// with every header field from its previous life cleared.
func TestMbufPoolResetsRecycledPacket(t *testing.T) {
	i := NewInterface(0, Config{RxRing: 4})
	if err := i.Inject(buildUDP(t, 100)); err != nil {
		t.Fatal(err)
	}
	p := i.Poll()
	p.MarkDrop("stale")
	p.OutIf, p.FIX, p.FIXGen, p.CacheMiss, p.PuntLocal = 3, "stale-fix", 9, true, true
	p.Path.Active, p.Path.NHops = true, 2
	p.QNext = &pkt.Packet{}
	p.ReleaseBuf()

	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.9.9.9"), Dst: pkt.MustParseAddr("10.0.0.2"),
		SrcPort: 7, DstPort: 8, Payload: make([]byte, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := i.Inject(data); err != nil {
		t.Fatal(err)
	}
	q := i.Poll()
	if q != p {
		t.Fatal("Inject did not reuse the released packet")
	}
	want, _ := pkt.NewPacket(data, 0)
	if q.Drop || q.DropMsg != "" || q.OutIf != -1 || q.FIX != nil || q.FIXGen != 0 ||
		q.CacheMiss || q.PuntLocal || q.Path != (pkt.PathContext{}) || q.QNext != nil {
		t.Errorf("recycled header not reset: %+v", q)
	}
	if q.Key != want.Key || !q.KeyValid || q.TOS != want.TOS || q.Owner != i || q.Stamp.IsZero() {
		t.Errorf("recycled header: key %v valid %v tos %d owner %v, want key %v", q.Key, q.KeyValid, q.TOS, q.Owner, want.Key)
	}
	if string(q.Data) != string(data) {
		t.Error("recycled packet carries the wrong bytes")
	}
}

// TestMbufDoubleReleaseIsNoop: the owner is cleared on the first
// release, so a second one cannot put the packet on the free list twice
// (which would hand it to two receivers).
func TestMbufDoubleReleaseIsNoop(t *testing.T) {
	i := NewInterface(0, Config{RxRing: 4})
	if err := i.Inject(buildUDP(t, 10)); err != nil {
		t.Fatal(err)
	}
	p := i.Poll()
	p.ReleaseBuf()
	p.ReleaseBuf()
	if n := len(i.mbufFree); n != 1 {
		t.Fatalf("free list holds %d packets after a double release, want 1", n)
	}
	for k := 0; k < 2; k++ {
		if err := i.Inject(buildUDP(t, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := i.Poll(), i.Poll(); a == b {
		t.Fatal("two receives share one packet")
	}
}

// TestMbufReslicedOrReplacedNotPooled: a packet whose Data no longer
// spans a full MTU buffer — resliced by decapsulation, or replaced by a
// plugin — is left to the garbage collector, not pooled.
func TestMbufReslicedOrReplacedNotPooled(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(p *pkt.Packet)
	}{
		{"resliced", func(p *pkt.Packet) { p.Data = p.Data[pkt.IPv4HeaderLen:] }},
		{"replaced", func(p *pkt.Packet) { p.Data = append([]byte(nil), p.Data...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := NewInterface(0, Config{RxRing: 4})
			if err := i.Inject(buildUDP(t, 10)); err != nil {
				t.Fatal(err)
			}
			p := i.Poll()
			tc.edit(p)
			p.ReleaseBuf()
			if n := len(i.mbufFree); n != 0 {
				t.Fatalf("free list holds %d packets, want 0", n)
			}
			if err := i.Inject(buildUDP(t, 10)); err != nil {
				t.Fatal(err)
			}
			if i.Poll() == p {
				t.Fatal("a packet with a foreign buffer was reused")
			}
		})
	}
}

// TestMbufExhaustionFallsBack: with more packets in flight than the pool
// depth, Inject still delivers, on counted heap packets; releasing them
// all refills the free list only up to the depth.
func TestMbufExhaustionFallsBack(t *testing.T) {
	i := NewInterface(0, Config{RxRing: 2})
	depth := i.BufDepth()
	var held []*pkt.Packet
	for k := 0; k < depth+3; k++ {
		if err := i.Inject(buildUDP(t, 10)); err != nil {
			t.Fatal(err)
		}
		held = append(held, i.Poll())
	}
	if got := i.Stats().MbufFallback; got != 3 {
		t.Fatalf("MbufFallback = %d, want 3", got)
	}
	for _, p := range held {
		p.ReleaseBuf()
	}
	if n := len(i.mbufFree); n != depth {
		t.Fatalf("free list holds %d packets, want the depth %d", n, depth)
	}
	if err := i.Inject(buildUDP(t, 10)); err != nil {
		t.Fatal(err)
	}
	i.Poll()
	if got := i.Stats().MbufFallback; got != 3 {
		t.Fatalf("MbufFallback = %d after a recycled receive, want 3", got)
	}
}
