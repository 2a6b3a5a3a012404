package ipcore

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// newParallelRig builds a two-interface plugin-mode router with a worker
// pool and a generous output queue (the pool tests drain after the fact).
func newParallelRig(t *testing.T, workers int, rc *pcu.Reclaimer) *testRig {
	t.Helper()
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	a := aiu.New(aiu.Config{InitialFlows: 256, MaxFlows: 4096}, DefaultGates...)
	r, err := New(Config{
		Mode: ModePlugin, AIU: a, Routes: routes,
		Workers: workers, OutQueueLen: 65536, Reclaim: rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Large rings: these tests submit bursts far beyond the default 512
	// descriptors and drain after the fact.
	in := netdev.NewInterface(0, netdev.Config{Addr: pkt.MustParseAddr("192.0.2.1"), RxRing: 65536})
	out := netdev.NewInterface(1, netdev.Config{RxRing: 65536})
	sink := netdev.NewInterface(2, netdev.Config{RxRing: 65536})
	netdev.Connect(out, sink)
	r.AddInterface(in)
	r.AddInterface(out)
	return &testRig{r: r, in: in, out: out, sink: sink, a: a}
}

// seqPacket builds a UDP packet for flow f carrying sequence number seq
// in its payload.
func seqPacket(t *testing.T, f int, seq uint32) *pkt.Packet {
	t.Helper()
	payload := make([]byte, 8)
	binary.BigEndian.PutUint32(payload, uint32(f))
	binary.BigEndian.PutUint32(payload[4:], seq)
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.AddrV4(0x0a000000 + uint32(f)), Dst: pkt.AddrV4(0x14000001),
		SrcPort: uint16(1000 + f%60000), DstPort: 9, Payload: payload, TTL: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Stamp = pkt.Nanotime()
	return p
}

func TestPoolConstruction(t *testing.T) {
	rig := newParallelRig(t, 4, nil)
	pool := rig.r.Pool()
	if pool == nil {
		t.Fatal("Workers=4 must build a pool")
	}
	if pool.Workers() != 4 {
		t.Errorf("workers = %d", pool.Workers())
	}
	if pool.Reclaimer() == nil {
		t.Error("pool must own a reclaimer when none was supplied")
	}
	// Single-threaded configs have no pool.
	single := newRig(t, ModePlugin, nil)
	if single.r.Pool() != nil {
		t.Error("Workers<=1 must not build a pool")
	}
}

// Every packet of one flow must leave in submission order even with the
// pool racing: steering pins a flow to one worker and the per-interface
// output FIFO preserves that worker's enqueue order.
func TestPoolPerFlowOrdering(t *testing.T) {
	rig := newParallelRig(t, 4, nil)
	pool := rig.r.Pool()
	pool.Start()
	const flows, perFlow = 32, 200
	for seq := uint32(0); seq < perFlow; seq++ {
		for f := 0; f < flows; f++ {
			// Submit never blocks; the producer supplies its own
			// backpressure by retrying the rejected packet before moving
			// on, which preserves per-flow submission order.
			pk := seqPacket(t, f, seq)
			for !pool.Submit(pk) {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	pool.Stop() // waits for every submitted packet
	if got := rig.r.Stats().Forwarded; got != flows*perFlow {
		t.Fatalf("forwarded %d of %d", got, flows*perFlow)
	}
	rig.r.TxDrain(1, flows*perFlow+10)
	next := make(map[uint32]uint32, flows)
	seen := 0
	for {
		p := rig.sink.Poll()
		if p == nil {
			break
		}
		payload := p.Data[pkt.IPv4HeaderLen+8:]
		f := binary.BigEndian.Uint32(payload)
		seq := binary.BigEndian.Uint32(payload[4:])
		if want := next[f]; seq != want {
			t.Fatalf("flow %d: got seq %d want %d (reordered)", f, seq, want)
		}
		next[f]++
		seen++
	}
	if seen != flows*perFlow {
		t.Fatalf("sink saw %d of %d", seen, flows*perFlow)
	}
	// The per-worker counters must account for every packet.
	var sum uint64
	for i := 0; i < pool.Workers(); i++ {
		sum += pool.Forwarded(i)
	}
	if sum != flows*perFlow {
		t.Errorf("per-worker counters sum to %d", sum)
	}
}

// The same flow must always land on the same worker (ordering depends
// on it); distinct flows must spread across workers.
func TestPoolSteeringDeterministic(t *testing.T) {
	const workers = 4
	k := pkt.Key{Src: pkt.AddrV4(1), Dst: pkt.AddrV4(2), Proto: pkt.ProtoUDP, SrcPort: 3, DstPort: 4}
	w := aiu.SteerWorker(pkt.FlowHash(k), workers)
	for i := 0; i < 100; i++ {
		if aiu.SteerWorker(pkt.FlowHash(k), workers) != w {
			t.Fatal("steering is not a pure function of the key")
		}
	}
	hit := make(map[int]bool)
	for f := 0; f < 256; f++ {
		k.SrcPort = uint16(f)
		hit[aiu.SteerWorker(pkt.FlowHash(k), workers)] = true
	}
	if len(hit) != workers {
		t.Errorf("256 flows hit only %d of %d workers", len(hit), workers)
	}
}

// Run with Workers>1 drives the full loop: poll → steer → forward →
// drain, with reclamation collected on the run loop.
func TestRunParallelEndToEnd(t *testing.T) {
	rig := newParallelRig(t, 4, nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rig.r.Run(done)
	}()
	// Pace the producer below worker-queue capacity: Submit sheds load
	// instead of blocking, so an unpaced burst would (correctly) drop.
	// Keeping ≤512 packets in flight guarantees losslessness.
	const n = 2000
	deadline := time.Now().Add(5 * time.Second)
	injected, got := 0, 0
	for got < n && time.Now().Before(deadline) {
		if injected < n && injected-got < 512 {
			rig.in.Inject(seqPacket(t, injected%16, uint32(injected/16)).Data)
			injected++
			continue
		}
		if p := rig.sink.Poll(); p != nil {
			got++
			continue
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(done)
	wg.Wait()
	if got != n {
		t.Fatalf("received %d of %d", got, n)
	}
}

// atomicInstance is a dispatch counter safe for concurrent workers.
type atomicInstance struct {
	name  string
	calls atomic.Uint64
}

func (a *atomicInstance) InstanceName() string { return a.name }
func (a *atomicInstance) HandlePacket(p *pkt.Packet) error {
	a.calls.Add(1)
	return nil
}

// blockingInstance holds the worker inside HandlePacket until released —
// it pins the worker online mid-dispatch so reclamation must wait.
type blockingInstance struct {
	name    string
	entered chan struct{}
	release chan struct{}
}

func (b *blockingInstance) InstanceName() string { return b.name }
func (b *blockingInstance) HandlePacket(p *pkt.Packet) error {
	b.entered <- struct{}{}
	<-b.release
	return nil
}

// A worker mid-dispatch holds the epoch open: a deferred destruction
// must not run until that worker passes its next quiescent point.
func TestPoolReclaimWaitsForDispatch(t *testing.T) {
	rc := pcu.NewReclaimer()
	rig := newParallelRig(t, 2, rc)
	inst := &blockingInstance{
		name:    "blocker",
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	if _, err := rig.a.Bind(pcu.TypeSecurity, aiu.MatchAll(), inst, nil); err != nil {
		t.Fatal(err)
	}
	pool := rig.r.Pool()
	if pool.Reclaimer() != rc {
		t.Fatal("pool must use the supplied reclaimer")
	}
	pool.Start()
	defer func() {
		close(inst.release)
		pool.Stop()
	}()

	pool.Submit(seqPacket(t, 1, 0))
	<-inst.entered // the worker is now online, inside HandlePacket

	freed := make(chan struct{})
	if err := rc.Defer(func() error { close(freed); return nil }); err != nil {
		t.Fatal(err)
	}
	rc.Collect()
	select {
	case <-freed:
		t.Fatal("destruction ran while a worker was mid-dispatch")
	case <-time.After(20 * time.Millisecond):
	}

	inst.release <- struct{}{} // let the dispatch finish; worker quiesces
	deadline := time.Now().Add(2 * time.Second)
	for rc.Pending() > 0 && time.Now().Before(deadline) {
		rc.Collect()
		time.Sleep(time.Millisecond)
	}
	select {
	case <-freed:
	default:
		t.Fatal("destruction never ran after the worker quiesced")
	}
}

// The full stack under -race: parallel Run, control-path bind/unbind and
// flow flushes, reclaimed frees.
func TestRunParallelControlChurn(t *testing.T) {
	rc := pcu.NewReclaimer()
	rig := newParallelRig(t, 4, rc)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rig.r.Run(done)
	}()

	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			rig.in.Inject(seqPacket(t, i%64, uint32(i/64)).Data)
			i++
			if i%256 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	// Control path: churn instances bound to live flows, freeing through
	// the reclaimer exactly as the facade does (unbind/flush first, then
	// defer the destruction).
	for round := 0; round < 50; round++ {
		inst := &atomicInstance{name: "churn"}
		if _, err := rig.a.Bind(pcu.TypeSecurity, aiu.MustParseFilter("10.0.0.0/8, *, UDP, *, *, *"), inst, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Microsecond)
		rig.a.UnbindInstance(inst)
		if err := rc.Defer(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	time.Sleep(5 * time.Millisecond)
	close(done)
	wg.Wait()
	if !rc.Drain(2 * time.Second) {
		t.Error("reclaimer did not drain after shutdown")
	}
	if rig.r.Stats().Forwarded == 0 {
		t.Error("no packets forwarded during churn")
	}
}
