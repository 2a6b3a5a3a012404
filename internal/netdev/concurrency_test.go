package netdev

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// ringAt makes r's next position base, as if base packets had passed
// through it: the wrap-around tests start just below 2^32.
func ringAt(r *rxRing, base uint32) {
	r.head.Store(base)
	r.tail.Store(base)
	for k := uint32(0); k <= r.mask; k++ {
		r.seq[(base+k)&r.mask].Store(base + k)
	}
}

// TestRxRingBoundaries: a ring takes exactly its depth — a power of two
// or not — refuses the next push, gives its packets back in order and
// then reports empty; across 32-bit position wrap-around as well.
func TestRxRingBoundaries(t *testing.T) {
	for _, depth := range []int{1, 3, 4, 5} {
		for _, base := range []uint32{0, math.MaxUint32 - 1, math.MaxUint32 - uint32(depth) + 1} {
			var r rxRing
			r.init(depth)
			ringAt(&r, base)
			pkts := make([]*pkt.Packet, 3*depth+1)
			for k := range pkts {
				pkts[k] = &pkt.Packet{InIf: int32(k)}
			}
			next, want := 0, 0
			for lap := 0; lap < 3; lap++ {
				if r.pop() != nil {
					t.Fatalf("depth %d base %#x lap %d: pop from an empty ring", depth, base, lap)
				}
				for k := 0; k < depth; k++ {
					if !r.push(pkts[next]) {
						t.Fatalf("depth %d base %#x: push %d of %d refused", depth, base, k+1, depth)
					}
					next++
				}
				if r.push(pkts[next]) {
					t.Fatalf("depth %d base %#x: a full ring took a packet", depth, base)
				}
				for k := 0; k < depth; k++ {
					if p := r.pop(); p != pkts[want] {
						t.Fatalf("depth %d base %#x: pop %d = %v, want packet %d", depth, base, k, p, want)
					}
					want++
				}
			}
			// Interleaved: one in, one out, for several laps.
			for k := 0; k < 4*depth+3; k++ {
				if !r.push(pkts[0]) || r.pop() != pkts[0] || r.pop() != nil {
					t.Fatalf("depth %d base %#x: interleaved step %d", depth, base, k)
				}
			}
		}
	}
}

// TestMbufPoolConcurrentGetPut: goroutines take and return mbufs as
// fast as they can, some with their Data replaced so their slots come
// back empty. No mbuf is ever held by two of them at once, the pool
// makes no more than its depth, and every slot is back on the free list
// at the end.
func TestMbufPoolConcurrentGetPut(t *testing.T) {
	const depth, workers, rounds = 8, 4, 3000
	var m mbufPool
	m.depth.Store(depth)
	var held sync.Map
	var fallbacks atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*pkt.Packet
			for k := 0; k < rounds; k++ {
				p := m.get(64)
				if p == nil {
					fallbacks.Add(1)
				} else {
					if _, dup := held.LoadOrStore(p, true); dup {
						t.Errorf("mbuf slot %d handed to two holders", p.Mbuf)
						return
					}
					p.Data = append(p.Data[:0], byte(k))
					mine = append(mine, p)
				}
				if len(mine) > 2 || (p == nil && len(mine) > 0) {
					q := mine[0]
					mine = mine[1:]
					held.Delete(q)
					if k%5 == 0 {
						q.Data = append([]byte(nil), q.Data...)
					}
					m.put(q, 64)
				}
			}
			for _, q := range mine {
				held.Delete(q)
				m.put(q, 64)
			}
		}()
	}
	wg.Wait()
	if made := m.made.Load(); made > depth {
		t.Fatalf("pool made %d mbufs, depth %d", made, depth)
	}
	if n, _ := freeSlots(&m); n != int(m.made.Load()) {
		t.Errorf("free list holds %d slots at rest, want all %d made", n, m.made.Load())
	}
	t.Logf("made %d, fallbacks %d", m.made.Load(), fallbacks.Load())
}

// TestRxConcurrentProducersAndConsumers drives one interface from every
// kind of producer at once — several goroutines Inject while a
// Connected peer Transmits into it from others — with pollers and
// releasers on goroutines of their own. Every accepted packet is
// received exactly once with its own bytes, no mbuf is held by two
// holders at once, and the pool makes no more than BufDepth mbufs but
// for counted heap fallbacks.
func TestRxConcurrentProducersAndConsumers(t *testing.T) {
	const (
		injectors, transmitters = 3, 2
		perProducer             = 1500
		pollers, releasers      = 2, 2
	)
	i := NewInterface(0, Config{RxRing: 16})
	peer := NewInterface(1, Config{})
	Connect(i, peer)

	payload := func(id uint32) []byte {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("10.0.0.2"),
			SrcPort: 1, DstPort: 2, Payload: binary.BigEndian.AppendUint32(make([]byte, 0, 4), id),
		})
		if err != nil {
			t.Error(err)
		}
		return data
	}
	idOf := func(p *pkt.Packet) uint32 { return binary.BigEndian.Uint32(p.Data[len(p.Data)-4:]) }

	var (
		injected  [injectors * perProducer]atomic.Bool // accepted by Inject
		received  [(injectors + transmitters) * perProducer]atomic.Int32
		held      sync.Map // *pkt.Packet -> holder mark
		pooled    sync.Map // every distinct pool mbuf seen
		heapSeen  atomic.Int64
		refused   atomic.Uint64 // Inject retries on a full ring
		producers sync.WaitGroup
		consumers sync.WaitGroup
		done      atomic.Bool
	)
	const stuckAfter = 20 * time.Second
	stuck := time.Now().Add(stuckAfter)
	for g := 0; g < injectors; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			for k := 0; k < perProducer; k++ {
				id := uint32(g*perProducer + k)
				data := payload(id)
				for i.Inject(data) == ErrRingFull {
					refused.Add(1)
					if time.Now().After(stuck) {
						t.Errorf("the ring stayed full for %v with pollers running", stuckAfter)
						return
					}
					runtime.Gosched()
				}
				injected[id].Store(true)
			}
		}(g)
	}
	for g := 0; g < transmitters; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			for k := 0; k < perProducer; k++ {
				id := uint32((injectors+g)*perProducer + k)
				if err := peer.Transmit(&pkt.Packet{Data: payload(id)}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}

	// Pollers hand packets to releasers through a buffer deeper than the
	// RX ring, so a slow releaser lets packets pile up in flight: that
	// is what drives the pool to its depth and into fallbacks.
	release := make(chan *pkt.Packet, 64)
	for g := 0; g < releasers; g++ {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for p := range release {
				received[idOf(p)].Add(1)
				held.Delete(p)
				p.ReleaseBuf()
			}
		}()
	}
	var polling sync.WaitGroup
	for g := 0; g < pollers; g++ {
		polling.Add(1)
		go func() {
			defer polling.Done()
			for {
				p := i.Poll()
				if p == nil {
					if done.Load() {
						return
					}
					runtime.Gosched()
					continue
				}
				if _, dup := held.LoadOrStore(p, true); dup {
					t.Errorf("mbuf slot %d received while another holder has it", p.Mbuf)
				}
				if p.Mbuf != 0 {
					pooled.Store(p, true)
				} else {
					heapSeen.Add(1)
				}
				release <- p
			}
		}()
	}
	producers.Wait()
	done.Store(true)
	polling.Wait()
	close(release)
	consumers.Wait()

	s := i.Stats()
	total := uint64(0)
	for id := range received {
		switch n := received[id].Load(); {
		case n > 1:
			t.Errorf("packet %d received %d times", id, n)
		case n == 0 && id < len(injected) && injected[id].Load():
			t.Errorf("injected packet %d never received", id)
		}
		total += uint64(received[id].Load())
	}
	if total != s.RxPackets {
		t.Errorf("received %d packets, the interface counted %d", total, s.RxPackets)
	}
	if want := uint64((injectors+transmitters)*perProducer) + refused.Load(); s.RxPackets+s.RxDropRing != want {
		t.Errorf("received %d + ring-full %d, want the %d offered", s.RxPackets, s.RxDropRing, want)
	}
	distinct := 0
	pooled.Range(func(any, any) bool { distinct++; return true })
	if depth := i.BufDepth(); distinct > depth || int(i.mbufs.made.Load()) > depth {
		t.Errorf("pool made %d mbufs (%d seen), depth %d", i.mbufs.made.Load(), distinct, depth)
	}
	if uint64(heapSeen.Load()) > s.MbufFallback {
		t.Errorf("%d heap packets received, only %d counted as fallback", heapSeen.Load(), s.MbufFallback)
	}
	if n, made := freeMbufs(i), int(i.mbufs.made.Load()); n != made {
		t.Errorf("free list holds %d mbufs at rest, want all %d made", n, made)
	}
}
