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

// parallelRing is the per-worker RX ring depth of newParallelRig's
// interfaces, and parallelMTU their MTU: every packet in flight holds
// an MTU-sized mbuf, so the tests keep both small.
const (
	parallelRing = 1024
	parallelMTU  = 1500
)

// newParallelRig builds a two-interface plugin-mode router with workers
// forwarding workers and a generous output queue.
func newParallelRig(t *testing.T, workers int) *testRig {
	t.Helper()
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	a := aiu.New(aiu.Config{InitialFlows: 256, MaxFlows: 4096}, DefaultGates...)
	r, err := New(Config{
		Mode: ModePlugin, AIU: a, Routes: routes,
		Workers: workers, OutQueueLen: 65536,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := netdev.NewInterface(0, netdev.Config{Addr: pkt.MustParseAddr("192.0.2.1"), RxRing: parallelRing, MTU: parallelMTU})
	out := netdev.NewInterface(1, netdev.Config{RxRing: parallelRing, MTU: parallelMTU})
	sink := netdev.NewInterface(2, netdev.Config{RxRing: 65536, MTU: parallelMTU})
	netdev.Connect(out, sink)
	r.AddInterface(in)
	r.AddInterface(out)
	return &testRig{r: r, in: in, out: out, sink: sink, a: a}
}

// startRun runs the router's Run loop on its own goroutine; the
// returned stop closes its done channel and waits for Run to return.
func startRun(rig *testRig) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		rig.r.Run(done)
		close(exited)
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// seqData builds a UDP datagram for flow f carrying sequence number seq
// in its payload.
func seqData(t *testing.T, f int, seq uint32) []byte {
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
	return data
}

// seqPacket is seqData parsed into a packet.
func seqPacket(t *testing.T, f int, seq uint32) *pkt.Packet {
	t.Helper()
	p, err := pkt.NewPacket(seqData(t, f, seq), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Stamp = pkt.Nanotime()
	return p
}

// injectSeq receives flow f's packet seq on the rig's ingress interface.
func injectSeq(t *testing.T, rig *testRig, f int, seq uint32) error {
	t.Helper()
	return rig.in.Inject(seqData(t, f, seq))
}

// verdicts counts the packets the core has reached a verdict on.
func verdicts(r *Router) uint64 {
	s := r.Stats()
	return s.Forwarded + s.Delivered + s.Dropped
}

// Workers=n gives every attached interface n RX rings and an mbuf pool
// covering each ring and each worker's vector; Workers ≤ 1 keeps one
// ring. Every router has an epoch reclaimer.
func TestPoolConstruction(t *testing.T) {
	rig := newParallelRig(t, 4)
	for _, ifc := range []*netdev.Interface{rig.in, rig.out} {
		if got := ifc.Queues(); got != 4 {
			t.Errorf("%s: %d RX rings, want 4", ifc.Name, got)
		}
		if got, want := ifc.BufDepth(), 4*(parallelRing+DefaultBatchSize)+1; got != want {
			t.Errorf("%s: BufDepth = %d, want %d", ifc.Name, got, want)
		}
	}
	if rig.sink.Queues() != 1 {
		t.Error("an interface no router attached grew RX rings")
	}
	if rig.r.Reclaimer() == nil {
		t.Error("Workers=4 router has no reclaimer")
	}
	single := newRig(t, ModePlugin, nil)
	if got := single.in.Queues(); got != 1 {
		t.Errorf("Workers<=1: %d RX rings, want 1", got)
	}
	if single.r.Reclaimer() == nil {
		t.Error("Workers<=1 router has no reclaimer")
	}
}

// Every packet of one flow must leave in arrival order with four
// workers racing: Receive pins a flow to one worker's ring, the worker
// forwards its vector in order, and one worker at a time drains a port.
func TestPoolPerFlowOrdering(t *testing.T) {
	rig := newParallelRig(t, 4)
	stop := startRun(rig)
	defer stop()
	const flows, perFlow = 32, 200
	const total = flows * perFlow
	next := make(map[uint32]uint32, flows)
	seen := 0
	consume := func() {
		for p := rig.sink.Poll(); p != nil; p = rig.sink.Poll() {
			payload := p.Data[pkt.IPv4HeaderLen+8:]
			f := binary.BigEndian.Uint32(payload)
			seq := binary.BigEndian.Uint32(payload[4:])
			if want := next[f]; seq != want {
				t.Fatalf("flow %d: got seq %d want %d (reordered)", f, seq, want)
			}
			next[f]++
			seen++
			p.ReleaseBuf()
		}
	}
	injected := 0
	deadline := time.Now().Add(10 * time.Second)
	for seen < total && time.Now().Before(deadline) {
		// Keep fewer packets in flight than one ring holds, so none is
		// shed and every flow's sequence stays whole.
		if injected < total && injected-seen < parallelRing/2 {
			f, seq := injected%flows, uint32(injected/flows)
			if err := injectSeq(t, rig, f, seq); err != nil {
				t.Fatalf("inject %d: %v", injected, err)
			}
			injected++
			continue
		}
		consume()
		time.Sleep(50 * time.Microsecond)
	}
	stop()
	consume()
	if seen != total {
		t.Fatalf("sink saw %d of %d (stats %+v)", seen, total, rig.r.Stats())
	}
	if got := rig.r.Stats().Forwarded; got != total {
		t.Errorf("forwarded %d of %d", got, total)
	}
}

// The same flow must always land on the same worker (ordering depends
// on it); distinct flows must spread across workers.
func TestPoolSteeringDeterministic(t *testing.T) {
	const workers = 4
	k := pkt.Key{Src: pkt.AddrV4(1), Dst: pkt.AddrV4(2), Proto: pkt.ProtoUDP, SrcPort: 3, DstPort: 4}
	w := pkt.SteerWorker(pkt.FlowHash(k), workers)
	for i := 0; i < 100; i++ {
		if pkt.SteerWorker(pkt.FlowHash(k), workers) != w {
			t.Fatal("steering is not a pure function of the key")
		}
	}
	hit := make(map[int]bool)
	for f := 0; f < 256; f++ {
		k.SrcPort = uint16(f)
		hit[pkt.SteerWorker(pkt.FlowHash(k), workers)] = true
	}
	if len(hit) != workers {
		t.Errorf("256 flows hit only %d of %d workers", len(hit), workers)
	}
}

// Run with Workers>1 drives the full loop: receive → steer → poll →
// forward → drain, with reclamation collected on the run loop.
func TestRunParallelEndToEnd(t *testing.T) {
	rig := newParallelRig(t, 4)
	stop := startRun(rig)
	defer stop()
	// Pace the producer below the RX ring's capacity: a full ring sheds
	// instead of blocking, so an unpaced burst would (correctly) drop.
	// Keeping ≤512 packets in flight guarantees losslessness.
	const n = 2000
	deadline := time.Now().Add(5 * time.Second)
	injected, got := 0, 0
	for got < n && time.Now().Before(deadline) {
		if injected < n && injected-got < 512 {
			if err := injectSeq(t, rig, injected%16, uint32(injected/16)); err != nil {
				t.Fatal(err)
			}
			injected++
			continue
		}
		if p := rig.sink.Poll(); p != nil {
			p.ReleaseBuf()
			got++
			continue
		}
		time.Sleep(200 * time.Microsecond)
	}
	stop()
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
	rig := newParallelRig(t, 2)
	rc := rig.r.Reclaimer()
	inst := &blockingInstance{
		name:    "blocker",
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	if _, err := rig.a.Bind(pcu.TypeSecurity, aiu.MatchAll(), inst, nil); err != nil {
		t.Fatal(err)
	}
	stop := startRun(rig)
	defer func() {
		close(inst.release)
		stop()
	}()

	if err := injectSeq(t, rig, 1, 0); err != nil {
		t.Fatal(err)
	}
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
	rig := newParallelRig(t, 4)
	rc := rig.r.Reclaimer()
	stop := startRun(rig)

	halt := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-halt:
				return
			default:
			}
			rig.in.Inject(seqData(t, i%64, uint32(i/64)))
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
	close(halt)
	wg.Wait()
	time.Sleep(5 * time.Millisecond)
	stop()
	if n := rc.Pending(); n != 0 {
		t.Errorf("%d destructions still pending after Run returned", n)
	}
	if rig.r.Stats().Forwarded == 0 {
		t.Error("no packets forwarded during churn")
	}
}
