package plugins

import (
	"sync"
	"testing"

	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// classified returns n packets of distinct flows, each carrying its
// flow record as a gate walk would leave it at the scheduling gate.
func (rg *rig) classified(t *testing.T, n int) []*pkt.Packet {
	t.Helper()
	ps := make([]*pkt.Packet, n)
	for k := range ps {
		ps[k] = udp(t, "10.0.0.1", uint16(1000+k), 64)
		if inst, _ := rg.a.LookupGate(ps[k], pcu.TypeSched, pkt.Nanotime(), nil); inst == nil {
			t.Fatal("the scheduling gate resolved no instance")
		}
	}
	return ps
}

// TestFlowSchedEnqueueRacingDrain: a Drain racing a packet's enqueue
// may miss it, but the packet is never stranded — the next Drain
// returns it, and then the scheduler reads empty.
func TestFlowSchedEnqueueRacingDrain(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})
			d := inst.(ipcore.Drainer)
			p := rg.classified(t, 1)[0]
			for round := 0; round < 2000; round++ {
				done := make(chan error)
				go func() { done <- inst.HandlePacket(p) }()
				got := d.Drain()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if got == nil {
					got = d.Drain()
				}
				if got != p {
					t.Fatalf("round %d: the enqueued packet was stranded", round)
				}
				if d.Drain() != nil || d.Backlog() != 0 {
					t.Fatalf("round %d: scheduler not empty after its one packet left", round)
				}
			}
		})
	}
}

// TestFlowSchedConcurrentEnqueuers: several goroutines enqueue, one by
// HandlePacket and the rest by HandleBatch, while another drains; once
// they are done the drainer's next Drains return every packet not yet
// taken, each once.
func TestFlowSchedConcurrentEnqueuers(t *testing.T) {
	const producers, each = 3, 40
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1", "qlen": "4096"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})
			d := inst.(ipcore.Drainer)
			batch := inst.(pcu.BatchHandler)
			flows := rg.classified(t, producers)
			var wg sync.WaitGroup
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < each; k++ {
						p := *flows[g]
						if g == 0 {
							if err := inst.HandlePacket(&p); err != nil {
								t.Error(err)
							}
							continue
						}
						ps := []*pkt.Packet{&p}
						if batch.HandleBatch(ps); ps[0] != nil {
							t.Error("HandleBatch refused a packet")
						}
					}
				}(g)
			}
			stopped := make(chan struct{})
			go func() { wg.Wait(); close(stopped) }()
			seen := make(map[*pkt.Packet]bool)
			take := func() bool {
				p := d.Drain()
				if p == nil {
					return false
				}
				if seen[p] {
					t.Fatal("a packet was drained twice")
				}
				seen[p] = true
				return true
			}
			for running := true; running; {
				select {
				case <-stopped:
					running = false
				default:
					take()
				}
			}
			for take() {
			}
			if len(seen) != producers*each || d.Backlog() != 0 {
				t.Errorf("drained %d of %d packets, backlog %d", len(seen), producers*each, d.Backlog())
			}
		})
	}
}
