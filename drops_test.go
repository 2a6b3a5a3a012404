package eisr

import (
	"testing"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
)

// refusingDriver is a wire that refuses every datagram with err, or
// accepts (and discards) it when err is nil.
type refusingDriver struct{ err error }

func (*refusingDriver) Start()                           {}
func (*refusingDriver) Stop()                            {}
func (d *refusingDriver) TransmitWire(*pkt.Packet) error { return d.err }

// TestDropsCountedOnce drives every source of loss through one router
// and reads the one drop family, eisr_drops_total, summed over every
// layer. Each step must raise that sum by exactly the packets it lost,
// and account for every packet it injected: transmitted, delivered,
// still queued, or lost — each exactly once. At the end the same
// ledger must hold for the whole run.
//
// The router has a worker pool that is never started, so Submit sheds
// once the owning worker's queue is full. Interface 1 is a sink, 2 a
// wire whose driver refuses on demand, and 3 carries a DRR instance
// that nothing drains; 30.0.0.0/8 routes to an interface that is not
// attached.
func TestDropsCountedOnce(t *testing.T) {
	r, err := New(Options{Workers: 2, VerifyChecksums: true, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := r.AddInterface(0, "in0", "10.0.0.254")
	out, _ := r.AddInterface(1, "out0", "")
	wire, _ := r.AddInterface(2, "wire0", "")
	r.AddInterface(3, "sched0", "")
	driver := &refusingDriver{}
	wire.AttachDriver(driver)
	for _, rt := range []string{"20.0.0.0/8 dev 1", "30.0.0.0/8 dev 7", "40.0.0.0/8 dev 2", "50.0.0.0/8 dev 3"} {
		if err := r.AddRoute(rt); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.LoadPlugin("drr"); err != nil {
		t.Fatal(err)
	}
	drr, err := r.CreateInstance("drr", map[string]string{"iface": "3", "qlen": "4"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("drr", drr, map[string]string{"filter": "*, 50.0.0.0/8, UDP, *, *, *"}); err != nil {
		t.Fatal(err)
	}

	datagram := func(dst string, sport uint16, ttl uint8) []byte {
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr(dst),
			SrcPort: sport, DstPort: 9, Payload: make([]byte, 16), TTL: ttl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var injected, submitted int64
	inject := func(n int, data []byte) {
		for i := 0; i < n; i++ {
			in.Inject(data)
			injected++
		}
	}
	// forward polls every interface and forwards inline; drain transmits
	// every output queue except the DRR instance's.
	forward := func() {
		for _, ifc := range r.Core.Interfaces() {
			for p := ifc.Poll(); p != nil; p = ifc.Poll() {
				r.Core.Forward(p)
			}
		}
	}
	drain := func() {
		for _, idx := range []int32{0, 1, 2} {
			for r.Core.TxDrain(idx, 64) > 0 {
			}
		}
	}
	dropsTotal := func() (n uint64) {
		for _, mv := range r.Telemetry.Snapshot() {
			if mv.Family == "eisr_drops_total" {
				n += mv.Counter
			}
		}
		return n
	}
	// ledger reads where the packets went: out of the router
	// (transmitted, delivered), still queued (at a worker, in the DRR
	// instance), or lost.
	ledger := func() (out, drops int64) {
		for _, ifc := range r.Core.Interfaces() {
			out += int64(ifc.Stats().TxPackets)
		}
		out += int64(r.Core.Stats().Delivered) + submitted
		if mv, ok := r.Telemetry.Find(`eisr_sched_backlog{plugin="drr",instance="` + drr + `"}`); ok {
			out += mv.Gauge
		}
		return out, int64(dropsTotal())
	}

	steps := []struct {
		name string
		lost int64
		run  func()
	}{
		{"forwarded", 0, func() { inject(3, datagram("20.0.0.1", 1, 64)) }},
		{"delivered", 0, func() { inject(2, datagram("10.0.0.254", 1, 64)) }},
		{"rx down", 2, func() {
			in.SetUp(false)
			inject(2, datagram("20.0.0.1", 1, 64))
			in.SetUp(true)
		}},
		{"rx too-big", 1, func() { inject(1, make([]byte, netdev.DefaultMTU+1)) }},
		{"rx malformed", 1, func() { inject(1, []byte{0x45, 0, 0, 4}) }},
		{"rx ring-full", 3, func() { inject(512+3, datagram("20.0.0.1", 1, 64)) }},
		{"bad checksum", 1, func() {
			bad := datagram("20.0.0.1", 1, 64)
			bad[10] ^= 0xff
			inject(1, bad)
		}},
		{"ttl expired", 1, func() {
			expired := datagram("20.0.0.1", 1, 1)
			if _, err := pkt.DecTTLv4(expired); err != nil {
				t.Fatal(err)
			}
			inject(1, expired)
		}},
		{"no route", 1, func() { inject(1, datagram("60.0.0.1", 1, 64)) }},
		{"no output", 1, func() { inject(1, datagram("30.0.0.1", 1, 64)) }},
		{"tx down", 2, func() {
			inject(2, datagram("20.0.0.1", 1, 64))
			forward()
			out.SetUp(false)
			drain()
			out.SetUp(true)
		}},
		{"tx ring-full", 2, func() {
			driver.err = netdev.ErrRingFull
			inject(2, datagram("40.0.0.1", 1, 64))
		}},
		{"tx too-big", 1, func() {
			driver.err = netdev.ErrTooBig
			inject(1, datagram("40.0.0.1", 1, 64))
		}},
		{"wire accepts", 0, func() {
			driver.err = nil
			inject(1, datagram("40.0.0.1", 1, 64))
		}},
		{"drr queue-full", 2, func() { inject(6, datagram("50.0.0.1", 7, 64)) }},
		// Evicting the DRR flow leaves its four packets queued until the
		// slot's next flow — here the same flow, back in the freed record
		// — claims the queue and drops them as evicted.
		{"flow-queue reset", 4, func() {
			p, err := pkt.NewPacket(datagram("50.0.0.1", 7, 64), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !r.AIU.FlowTable().Remove(p.Key) {
				t.Fatal("the DRR flow was not cached")
			}
			inject(1, datagram("50.0.0.1", 7, 64))
		}},
		{"shed", 1100 - 1024, func() {
			for i := 0; i < 1100; i++ {
				inject(1, datagram("20.0.0.1", 2, 64))
				p := in.Poll()
				if r.Core.Pool().Submit(p) {
					submitted++
				} else {
					p.ReleaseBuf()
				}
			}
		}},
	}
	for _, s := range steps {
		in0 := injected
		out0, drops0 := ledger()
		s.run()
		forward()
		drain()
		out1, drops1 := ledger()
		if got := drops1 - drops0; got != s.lost {
			t.Errorf("%s: eisr_drops_total rose by %d, want %d", s.name, got, s.lost)
		}
		if n, acc := injected-in0, (out1-out0)+(drops1-drops0); n != acc {
			t.Errorf("%s: %d packets in, %d accounted for (out %d, lost %d)", s.name, n, acc, out1-out0, drops1-drops0)
		}
	}
	if out, drops := ledger(); out+drops != injected {
		t.Errorf("injected %d = transmitted + delivered + queued %d + dropped %d fails by %d",
			injected, out, drops, injected-(out+drops))
	}
}
