package ipcore

import (
	"testing"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// TestOverloadShedReleasesMbufs: a worker ring that fills sheds at
// Receive, which returns the shed packet's buffer to the pool, so
// sustained overload cannot drain the interface's mbuf pool into the
// heap fallback. Packets of flows on both workers arrive faster than
// Step forwards them, many times the pool depth over; the fallback
// counter must stay zero, the ring-full cell must show the sheds, and
// every received packet is either forwarded, counted lost exactly
// once, or still on a ring.
func TestOverloadShedReleasesMbufs(t *testing.T) {
	const workers = 2
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	a := aiu.New(aiu.Config{InitialFlows: 256, MaxFlows: 4096}, DefaultGates...)
	r, err := New(Config{Mode: ModePlugin, AIU: a, Routes: routes, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	const ring = 64
	in := netdev.NewInterface(0, netdev.Config{Addr: pkt.MustParseAddr("192.0.2.1"), RxRing: ring})
	out := netdev.NewInterface(1, netdev.Config{RxRing: ring})
	r.AddInterface(in)
	r.AddInterface(out)
	rig := &testRig{r: r, in: in, out: out}

	depth := in.BufDepth()
	injected := 0
	for round := 0; injected < depth*4; round++ {
		for i := 0; i < 2*ring; i++ {
			injectSeq(t, rig, i%8, uint32(round))
			injected++
		}
		r.Step()
	}

	st := in.Stats()
	if st.RxDropRing == 0 {
		t.Error("no ring-full sheds counted despite the overload")
	}
	if st.MbufFallback != 0 {
		t.Errorf("mbuf pool exhausted under overload: %d fallback allocations (shed packets leaked their buffers)", st.MbufFallback)
	}
	queued := 0
	for p := in.Poll(); p != nil; p = in.Poll() {
		p.ReleaseBuf()
		queued++
	}
	s := r.Stats()
	if got := s.Forwarded + s.Dropped + st.RxDrops + uint64(queued); got != uint64(injected) {
		t.Errorf("injected %d, but forwarded %d + core drops %d + interface drops %d + queued %d = %d",
			injected, s.Forwarded, s.Dropped, st.RxDrops, queued, got)
	}
}
