package eisr

import (
	"sync"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// TestRestartWithWorkers cycles a four-worker router through Start and
// Stop while a goroutine injects without pause. Stop must return only
// after the run loop and every worker have exited: the next Start must
// not race a winding-down loop, and once Stop has returned no packet is
// forwarded until the next Start.
func TestRestartWithWorkers(t *testing.T) {
	r, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := r.AddInterface(0, "in0", "")
	r.AddInterface(1, "out0", "")
	if err := r.AddRoute("20.0.0.0/8 dev 1"); err != nil {
		t.Fatal(err)
	}
	flows := make([][]byte, 16)
	for f := range flows {
		flows[f], err = pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
			SrcPort: uint16(1000 + f), DstPort: 9, Payload: make([]byte, 16), TTL: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	halt := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-halt:
				return
			default:
			}
			in.Inject(flows[i%len(flows)])
		}
	}()
	defer func() {
		close(halt)
		wg.Wait()
	}()

	for cycle := 0; cycle < 300; cycle++ {
		r.Start()
		r.Stop()
		before := r.Core.Stats().Forwarded
		time.Sleep(100 * time.Microsecond)
		if after := r.Core.Stats().Forwarded; after != before {
			t.Fatalf("cycle %d: %d packets forwarded after Stop returned", cycle, after-before)
		}
	}
	r.Start()
	deadline := time.Now().Add(5 * time.Second)
	for r.Core.Stats().Forwarded == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if r.Core.Stats().Forwarded == 0 {
		t.Error("nothing forwarded across 301 runs")
	}
}
