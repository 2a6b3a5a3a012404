package netdev

import (
	"testing"

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

// freeMbufs counts the packets on an interface's mbuf free list. Only
// for a quiescent interface: it walks the list without claiming it.
func freeMbufs(i *Interface) int {
	_, pkts := freeSlots(&i.mbufs)
	return pkts
}

// freeSlots walks a quiescent pool's free list: the slots on it, and
// how many of them hold a packet (a slot whose packet left with a
// foreign buffer comes back empty). A list longer than the slots made —
// a cycle, or a slot pushed twice — counts as made+1 slots.
func freeSlots(m *mbufPool) (slots, pkts int) {
	made := int(m.made.Load())
	for s := uint32(m.free.Load()); s != 0 && slots <= made; s = m.slot(s).next.Load() {
		slots++
		if m.slot(s).p != nil {
			pkts++
		}
	}
	return slots, pkts
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
	if p.InIf != 0 || !p.KeyValid || p.Stamp == 0 {
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

// TestRewireUnderTraffic: Connect and AttachDriver publish a fresh
// wiring for each end while a worker transmits, which reads it without
// a lock (run with -race). Every packet reaches exactly one of the
// peers a was wired to, never a itself, and each end of the last
// Connect points at the other.
func TestRewireUnderTraffic(t *testing.T) {
	const n = 2000
	a := NewInterface(0, Config{RxRing: n})
	b := NewInterface(1, Config{RxRing: n})
	c := NewInterface(2, Config{RxRing: n})
	Connect(a, b)
	data := buildUDP(t, 20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < n; k++ {
			if err := a.Transmit(&pkt.Packet{Data: data}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
rewire:
	for k := 0; ; k++ {
		select {
		case <-done:
			break rewire
		default:
		}
		if k%2 == 0 {
			Connect(a, c)
		} else {
			Connect(a, b)
		}
		a.AttachDriver(nil)
	}
	if got := b.Stats().RxPackets + c.Stats().RxPackets; got != n || a.Stats().RxPackets != 0 {
		t.Fatalf("b and c received %d of %d, a received %d", got, n, a.Stats().RxPackets)
	}
	Connect(c, a)
	for _, l := range [][2]*Interface{{a, c}, {c, a}} {
		from, to := l[0], l[1]
		// Empty the peer's ring first: the traffic above may have
		// filled it, and a ring-full drop would say nothing of wiring.
		for to.Poll() != nil {
		}
		before := to.Stats().RxPackets
		if err := from.Transmit(&pkt.Packet{Data: data}); err != nil {
			t.Fatal(err)
		}
		if to.Stats().RxPackets != before+1 {
			t.Errorf("%s does not transmit to %s after Connect", from.Name, to.Name)
		}
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

func TestCustomClock(t *testing.T) {
	const fixed = 42
	i := NewInterface(0, Config{Clock: func() int64 { return fixed }})
	i.Inject(buildUDP(t, 10))
	if p := i.Poll(); p.Stamp != fixed {
		t.Errorf("stamp = %d", p.Stamp)
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
	p.MarkDrop()
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
	if q.Drop || q.OutIf != -1 || q.FIX != nil || q.FIXGen != 0 ||
		q.CacheMiss || q.PuntLocal || q.Path != (pkt.PathContext{}) || q.QNext != nil {
		t.Errorf("recycled header not reset: %+v", q)
	}
	if q.Key != want.Key || !q.KeyValid || q.TOS != want.TOS || q.Owner != i || q.Stamp == 0 {
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
	if n := freeMbufs(i); n != 1 {
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
			if n := freeMbufs(i); n != 0 {
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
	if n := freeMbufs(i); n != depth {
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

// TestMbufPoolRefillsReplacedBuffers: a slot whose packet left with a
// foreign buffer is not lost to the pool. After many times BufDepth
// packets with replaced or resliced Data have been released, with the
// whole depth in flight at once, the pool still serves its depth
// without a heap fallback, and a steady receive/release cycle allocates
// nothing.
func TestMbufPoolRefillsReplacedBuffers(t *testing.T) {
	i := NewInterface(0, Config{RxRing: 4})
	depth := i.BufDepth()
	data := buildUDP(t, 10)
	edits := []func(p *pkt.Packet){
		func(p *pkt.Packet) { p.Data = append([]byte(nil), p.Data...) },
		func(p *pkt.Packet) { p.Data = p.Data[pkt.IPv4HeaderLen:] },
	}
	for round := 0; round < 4; round++ {
		var held []*pkt.Packet
		for k := 0; k < depth; k++ {
			if err := i.Inject(data); err != nil {
				t.Fatal(err)
			}
			if k%4 == 3 { // keep the RX ring from filling
				for p := i.Poll(); p != nil; p = i.Poll() {
					held = append(held, p)
				}
			}
		}
		for p := i.Poll(); p != nil; p = i.Poll() {
			held = append(held, p)
		}
		for k, p := range held {
			edits[k%2](p)
			p.ReleaseBuf()
		}
	}
	if got := i.Stats().MbufFallback; got != 0 {
		t.Fatalf("MbufFallback = %d after %d rounds of the depth %d in flight, want 0", got, 4, depth)
	}
	if made := int(i.mbufs.made.Load()); made != depth {
		t.Fatalf("pool made %d slots, want the depth %d", made, depth)
	}
	if slots, pkts := freeSlots(&i.mbufs); slots != depth || pkts != 0 {
		t.Fatalf("free list holds %d slots, %d with a packet; want %d empty slots", slots, pkts, depth)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := i.Inject(data); err != nil {
			t.Fatal(err)
		}
		i.Poll().ReleaseBuf()
	})
	if allocs != 0 {
		t.Errorf("receive/release cycle allocates %.1f times, want 0", allocs)
	}
	if got := i.Stats().MbufFallback; got != 0 {
		t.Errorf("MbufFallback = %d after the steady cycle, want 0", got)
	}
}
