package ipcore

import (
	"testing"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// TestOverloadShedReleasesMbufs is the regression for the ingress shed
// leak: stepSubmit used to ignore Submit's verdict, so a packet shed by
// a full worker queue never returned its receive buffer and sustained
// overload drained the interface's whole mbuf pool into the heap
// fallback. With the fix, Submit retires a shed packet: its buffer is
// released and the shed counted once, as the core's overload drop.
// After injecting many times the pool depth against a never-started
// pool, the fallback counter must stay zero, the overload cell must
// show the sheds, and every injected packet is either queued at a
// worker or counted lost exactly once.
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

	// The pool is never started: each worker queue absorbs its depth and
	// every further submission for it sheds.
	depth := in.BufDepth()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
		SrcPort: 1000, DstPort: 9, Payload: make([]byte, 32), TTL: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	for round := 0; round < (depth*4)/ring+1; round++ {
		for i := 0; i < ring; i++ {
			if err := in.Inject(data); err != nil {
				t.Fatalf("round %d: inject %d: %v (pool exhausted?)", round, i, err)
			}
			injected++
		}
		r.stepSubmit()
	}
	if injected < depth*4 {
		t.Fatalf("injected only %d of %d", injected, depth*4)
	}

	st := in.Stats()
	if r.stats.drops[pkt.DropOverload].Value() == 0 {
		t.Error("no overload sheds counted despite a never-started pool")
	}
	if st.MbufFallback != 0 {
		t.Errorf("mbuf pool exhausted under overload: %d fallback allocations (shed packets leaked their buffers)", st.MbufFallback)
	}
	queued := 0
	for _, q := range r.pool.queues {
		queued += len(q)
	}
	dropped := r.Stats().Dropped
	if got := uint64(queued) + st.RxDrops + dropped; got != uint64(injected) {
		t.Errorf("injected %d, but queued %d + interface drops %d + core drops %d = %d (residual %d)",
			injected, queued, st.RxDrops, dropped, got, int64(injected)-int64(got))
	}
}
