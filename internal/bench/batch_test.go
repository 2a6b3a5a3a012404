package bench

// Batch sweep guards: the sweep must be well-formed at any core count,
// neither ProcessOne (a vector of one) nor ForwardBatch may allocate per
// packet on the steady-state hit path (asserted in every `go test` —
// allocation counts are deterministic), and under `make bench-smoke`
// batching must actually pay: batch=8 no slower than batch=1 and
// batch=16 at least 1.3x, on the 4-worker in-process topology.

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/plugins"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/telemetry"
)

func TestRunBatchSweepSmall(t *testing.T) {
	rows, err := RunBatchSweep(BatchSweepOptions{
		Sizes: []int{1, 8}, Flows: 64, PerFlow: 20, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PPS <= 0 {
			t.Errorf("batch=%d: pps = %f", r.Batch, r.PPS)
		}
	}
	if rows[0].Speedup != 1 {
		t.Errorf("baseline speedup = %f", rows[0].Speedup)
	}
	if s := BatchTable(rows, 2).String(); s == "" {
		t.Error("empty table")
	}
}

// newBatchAllocRig builds a one-gate router with primed flows and a
// reusable packet vector for the alloc guard.
func newBatchAllocRig(tb testing.TB, batch int) (*ipcore.Router, *ipcore.Batcher, []*pkt.Packet) {
	tb.Helper()
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		tb.Fatal(err)
	}
	a := aiu.New(aiu.Config{MaxFlows: 128}, pcu.TypeSched)
	inst := benchInstance{}
	a.Bind(pcu.TypeSched, aiu.MatchAll(), &inst, nil)
	r, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, Gates: []pcu.Type{pcu.TypeSched},
		AIU: a, Routes: routes, OutQueueLen: 1 << 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.AddInterface(netdev.NewInterface(0, netdev.Config{}))
	r.AddInterface(netdev.NewInterface(1, netdev.Config{}))
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})

	now := time.Now()
	ps := make([]*pkt.Packet, batch)
	for i := range ps {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.AddrV4(0x0a000000 + uint32(i%8)), Dst: pkt.AddrV4(0x14000001),
			SrcPort: uint16(1000 + i%8), DstPort: 9, TTL: 255, Payload: make([]byte, 32),
		})
		if err != nil {
			tb.Fatal(err)
		}
		k, err := pkt.ExtractKey(data, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ps[i] = &pkt.Packet{Data: data, InIf: 0, OutIf: -1, Stamp: now}
		ps[i].SetKey(k)
	}
	b := r.NewBatcher(batch)
	// Prime the flows so the measured runs sit on the cache-hit path.
	b.ForwardBatch(ps)
	for r.TxDrain(1, 1<<16) > 0 {
	}
	return r, b, ps
}

// TestBenchSmokeForwardBatchZeroAlloc is the acceptance guard for the
// vector path: steady-state ForwardBatch allocates nothing per packet.
// Allocation counts are deterministic, so this runs in every `go test`,
// not just under the smoke harness.
func TestBenchSmokeForwardBatchZeroAlloc(t *testing.T) {
	const batch = 32
	r, b, ps := newBatchAllocRig(t, batch)
	n := testing.AllocsPerRun(100, func() {
		for _, p := range ps {
			p.OutIf = -1
		}
		if got := b.ForwardBatch(ps); got != batch {
			t.Fatalf("batch lost packets: %d of %d survived", got, batch)
		}
		for r.TxDrain(1, 1<<16) > 0 {
		}
	})
	if n != 0 {
		t.Fatalf("ForwardBatch allocated %v per %d-packet batch, want 0", n, batch)
	}
}

// BenchmarkForwardBatch measures the steady-state cache-hit cost per
// packet by vector size; batch=1 is the vector of one Forward walks.
func BenchmarkForwardBatch(b *testing.B) {
	for _, batch := range []int{1, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			r, fb, ps := newBatchAllocRig(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range ps {
					p.OutIf = -1
					p.Data[8] = 255 // restore the TTL so the loop stays on the forwarding path
				}
				fb.ForwardBatch(ps)
				for r.TxDrain(1, 1<<16) > 0 {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
		})
	}
}

// newProcessOneRig builds the four default gates with a bound instance
// at each — null instances at options, security and routing, a DRR
// instance at sched — and returns the router with one primed packet and
// its pristine header for re-forwarding it.
func newProcessOneRig(tb testing.TB, tel *telemetry.Telemetry) (*ipcore.Router, *pkt.Packet, []byte) {
	tb.Helper()
	r := newDRRRouter(tb, tel, aiu.Config{BMPKind: bmp.KindBSPL})
	p := newFlowPacket(tb, 1000)
	hdr := append([]byte(nil), p.Data[:pkt.IPv4HeaderLen]...)
	if !r.ProcessOne(p) {
		tb.Fatal("priming packet dropped")
	}
	return r, p, hdr
}

// newDRRRouter assembles newProcessOneRig's router — null instances at
// options, security and routing, DRR at sched, a default route out of
// interface 1 — over an AIU built from cfg.
func newDRRRouter(tb testing.TB, tel *telemetry.Telemetry, cfg aiu.Config) *ipcore.Router {
	tb.Helper()
	return newFlowSchedRouter(tb, tel, cfg, func(env *plugins.Env) pcu.Plugin { return plugins.NewDRRPlugin(env) })
}

// newFlowSchedRouter is newDRRRouter with another per-flow scheduling
// plugin at the scheduling gate.
func newFlowSchedRouter(tb testing.TB, tel *telemetry.Telemetry, cfg aiu.Config, plugin func(*plugins.Env) pcu.Plugin) *ipcore.Router {
	tb.Helper()
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		tb.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	a := aiu.New(cfg, ipcore.DefaultGates...)
	a.SetTelemetry(tel)
	r, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, AIU: a, Routes: routes, VerifyChecksums: true, Tel: tel,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.AddInterface(netdev.NewInterface(0, netdev.Config{}))
	r.AddInterface(netdev.NewInterface(1, netdev.Config{}))
	for _, g := range []pcu.Type{pcu.TypeOptions, pcu.TypeSecurity, pcu.TypeRouting} {
		if _, err := a.Bind(g, aiu.MatchAll(), &plugins.NullInstance{}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	sp := plugin(&plugins.Env{Router: r, AIU: a})
	msg := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: map[string]string{"iface": "1", "quantum": "9180"}}
	if err := sp.Callback(msg); err != nil {
		tb.Fatal(err)
	}
	if _, err := a.Bind(pcu.TypeSched, aiu.MatchAll(), msg.Reply.(pcu.Instance), nil); err != nil {
		tb.Fatal(err)
	}
	return r
}

// newFlowPacket builds a received UDP packet of the flow with the given
// source port.
func newFlowPacket(tb testing.TB, sport uint16) *pkt.Packet {
	tb.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.AddrV4(0x0a000001), Dst: pkt.AddrV4(0x14000001),
		SrcPort: sport, DstPort: 9, TTL: 64, Payload: make([]byte, 32),
	})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		tb.Fatal(err)
	}
	p.Stamp = time.Now()
	return p
}

// TestProcessOneZeroAlloc is the allocation guard for the scalar entry
// point: on the cache-hit path through all four default gates with DRR
// at sched, ProcessOne — Forward's vector of one plus the transmit
// drain — allocates nothing, with telemetry off and on. Allocation
// counts are deterministic, so this runs in every `go test`.
func TestProcessOneZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		tel  *telemetry.Telemetry
	}{{"telemetry-off", nil}, {"telemetry-on", telemetry.New()}} {
		t.Run(tc.name, func(t *testing.T) {
			r, p, hdr := newProcessOneRig(t, tc.tel)
			n := testing.AllocsPerRun(1000, func() {
				copy(p.Data, hdr) // restore the TTL and checksum
				if !r.ProcessOne(p) {
					t.Fatal("cache-hit packet dropped")
				}
			})
			if n != 0 {
				t.Fatalf("ProcessOne allocated %v per packet, want 0", n)
			}
		})
	}
}

// TestInjectProcessOneZeroAlloc is the allocation guard for the whole
// simulated receive cycle: Inject copies the datagram into a pooled
// packet, Poll takes it off the RX ring, and ProcessOne walks it to the
// DRR queue and transmits it, which returns the packet to its pool. On
// a cache hit the cycle allocates nothing, with telemetry off and on —
// and the same holds across an in-memory link, whose far end receives
// into a packet from its own pool.
func TestInjectProcessOneZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		tel  *telemetry.Telemetry
		peer bool
	}{
		{"telemetry-off", nil, false},
		{"telemetry-on", telemetry.New(), false},
		{"telemetry-off/peer", nil, true},
		{"telemetry-on/peer", telemetry.New(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDRRRouter(t, tc.tel, aiu.Config{BMPKind: bmp.KindBSPL})
			in := r.Interface(0)
			var peer *netdev.Interface
			if tc.peer {
				peer = netdev.NewInterface(2, netdev.Config{})
				netdev.Connect(r.Interface(1), peer)
			}
			data := newFlowPacket(t, 1000).Data
			cycle := func() {
				if err := in.Inject(data); err != nil {
					t.Fatal(err)
				}
				if p := in.Poll(); p == nil || !r.ProcessOne(p) {
					t.Fatal("cache-hit packet dropped")
				}
				if peer != nil {
					q := peer.Poll()
					if q == nil {
						t.Fatal("nothing crossed the link")
					}
					q.ReleaseBuf()
				}
			}
			cycle() // the first packet classifies and builds the DRR queue
			if n := testing.AllocsPerRun(1000, cycle); n != 0 {
				t.Fatalf("Inject → Poll → ProcessOne allocated %v per packet, want 0", n)
			}
			if fb := in.Stats().MbufFallback; fb != 0 {
				t.Fatalf("%d mbuf fallbacks: a packet was not returned to its pool", fb)
			}
		})
	}
}

// recycleDriver is a wire driver that hands every transmitted packet
// straight to its next owner: clearing the output interface stands in
// for the reset the next Inject gives a recycled packet, so any read of
// a packet after its handoff races with it.
type recycleDriver struct{ sent atomic.Int64 }

func (*recycleDriver) Start() {}
func (*recycleDriver) Stop()  {}
func (d *recycleDriver) TransmitWire(p *pkt.Packet) error {
	p.OutIf = -1
	d.sent.Add(1)
	return nil
}

// TestProcessOneConcurrentDrain drives Inject → Poll → ProcessOne while
// another goroutine drains the output interface, so packets are
// transmitted and recycled by either goroutine. ProcessOne must not
// read a packet it handed to the scheduler; under -race, a read of the
// packet's output interface after the handoff is reported.
func TestProcessOneConcurrentDrain(t *testing.T) {
	r := newDRRRouter(t, nil, aiu.Config{BMPKind: bmp.KindBSPL})
	drv := &recycleDriver{}
	r.Interface(1).AttachDriver(drv)
	in := r.Interface(0)
	data := newFlowPacket(t, 1000).Data
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r.TxDrain(1, 8) == 0 {
				runtime.Gosched()
			}
		}
	}()
	const packets = 5000
	for i := 0; i < packets; i++ {
		if err := in.Inject(data); err != nil {
			t.Fatal(err)
		}
		if p := in.Poll(); p == nil || !r.ProcessOne(p) {
			t.Fatalf("packet %d dropped", i)
		}
	}
	close(stop)
	<-done
	for r.TxDrain(1, 64) > 0 {
	}
	if n := drv.sent.Load(); n != packets {
		t.Fatalf("transmitted %d of %d packets", n, packets)
	}
}

// firstPacketAllocs is the heap-object budget of a new flow's first
// packet when it recycles a flow record: none. The gate binds are
// written into the recycled record's slots, the flow's queue is the
// slot's slab entry, reset in place with its FIFO array, and the
// classification charges the caller's access counter (one of its own
// would escape through the BMP plugins' interface calls).
const firstPacketAllocs = 0

// TestFirstPacketAllocBudget pins the first-packet cost: with DRR at
// the scheduling gate and the flow table at its cap, every packet of a
// fresh flow classifies, recycles the oldest record and claims that
// record's slot in the DRR's queue slab, within firstPacketAllocs heap
// objects.
func TestFirstPacketAllocBudget(t *testing.T) {
	testFirstPacketAllocBudget(t, func(env *plugins.Env) pcu.Plugin { return plugins.NewDRRPlugin(env) })
}

// TestFirstPacketAllocBudgetEiffel is TestFirstPacketAllocBudget with
// Eiffel at the scheduling gate: both disciplines share the one per-flow
// plugin and its slab.
func TestFirstPacketAllocBudgetEiffel(t *testing.T) {
	testFirstPacketAllocBudget(t, func(env *plugins.Env) pcu.Plugin { return plugins.NewEiffelPlugin(env) })
}

func testFirstPacketAllocBudget(t *testing.T, plugin func(*plugins.Env) pcu.Plugin) {
	const (
		tableFlows = 64
		runs       = 500
	)
	r := newFlowSchedRouter(t, nil, aiu.Config{
		BMPKind: bmp.KindBSPL, FlowShards: 1,
		InitialFlows: tableFlows, MaxFlows: tableFlows,
	}, plugin)
	ps := make([]*pkt.Packet, tableFlows+runs+1)
	for i := range ps {
		ps[i] = newFlowPacket(t, uint16(1000+i))
	}
	for _, p := range ps[:tableFlows] {
		if !r.ProcessOne(p) {
			t.Fatal("fill packet dropped")
		}
	}
	next := tableFlows
	n := testing.AllocsPerRun(runs, func() {
		if !r.ProcessOne(ps[next]) {
			t.Fatal("first packet dropped")
		}
		next++
	})
	st := r.AIU().FlowTable().Stats()
	if st.Live != tableFlows || st.Recycled != uint64(runs+1) {
		t.Fatalf("flow table live=%d recycled=%d, want %d and %d: the fresh flows must recycle", st.Live, st.Recycled, tableFlows, runs+1)
	}
	if n != firstPacketAllocs {
		t.Fatalf("a new flow's first packet allocated %v heap objects, want %d", n, firstPacketAllocs)
	}
}

// TestBenchSmokeBatchSpeedup is the throughput acceptance gate: on the
// 4-worker in-process topology, batch=8 must not be slower than batch=1
// and batch=16 must deliver at least 1.3x. Run via `make bench-smoke`.
func TestBenchSmokeBatchSpeedup(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("timing guard; run via make bench-smoke (EISR_BENCH_SMOKE=1)")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need 4 cores for the batch speedup guard, have %d", runtime.NumCPU())
	}
	rows, err := RunBatchSweep(BatchSweepOptions{
		Sizes: []int{1, 8, 16}, Flows: 1024, PerFlow: 200, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("batch=%2d: %.0f pps (%.2fx)", r.Batch, r.PPS, r.Speedup)
	}
	if rows[1].Speedup < 1.0 {
		t.Fatalf("batch=8 is slower than batch=1: %.2fx", rows[1].Speedup)
	}
	if rows[2].Speedup < 1.3 {
		t.Fatalf("batch=16 speedup %.2fx, want >= 1.3x", rows[2].Speedup)
	}
}
