package ipcore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// TestConcurrentControlAndData exercises the paper's headline operational
// property: "these commands can be executed at any time, even when
// network traffic is transiting through the system". The data path runs
// continuously while the control path binds and unbinds filters,
// creates/frees instances, and flushes flows.
func TestConcurrentControlAndData(t *testing.T) {
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	gates := []pcu.Type{pcu.TypeSecurity, pcu.TypeSched}
	a := aiu.New(aiu.Config{InitialFlows: 64, MaxFlows: 512}, gates...)
	r, err := New(Config{Mode: ModePlugin, Gates: gates, AIU: a, Routes: routes})
	if err != nil {
		t.Fatal(err)
	}
	in := netdev.NewInterface(0, netdev.Config{})
	out := netdev.NewInterface(1, netdev.Config{})
	r.AddInterface(in)
	r.AddInterface(out)

	protos := make([][]byte, 32)
	for i := range protos {
		protos[i], _ = pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.AddrV4(0x0a000000 + uint32(i)), Dst: pkt.AddrV4(0x14000001),
			SrcPort: uint16(1000 + i), DstPort: 9, Payload: make([]byte, 128),
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Data path: inject and forward continuously.
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
			in.Inject(protos[i%len(protos)])
			if p := in.Poll(); p != nil {
				p.Stamp = pkt.Nanotime()
				r.ProcessOne(p)
			}
			i++
		}
	}()

	// Control path: churn filters and instances.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			inst := &churnInstance{name: fmt.Sprintf("sec%d", round)}
			rec, err := a.Bind(pcu.TypeSecurity,
				aiu.MustParseFilter(fmt.Sprintf("10.0.0.%d, *, UDP, *, *, *", round%32)), inst, nil)
			if err != nil {
				t.Error(err)
				return
			}
			a.ClassifyKey(pcu.TypeSecurity, pkt.Key{Src: pkt.AddrV4(1)}, nil)
			if round%3 == 0 {
				a.FlowTable().PurgeIdle(pkt.Nanotime())
			}
			if err := a.Unbind(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if r.Stats().Forwarded == 0 {
		t.Error("data path made no progress during control churn")
	}
}

type churnInstance struct{ name string }

func (c *churnInstance) InstanceName() string             { return c.name }
func (c *churnInstance) HandlePacket(p *pkt.Packet) error { return nil }
