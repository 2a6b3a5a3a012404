package eisr

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/netio"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/sched"
	"github.com/routerplugins/eisr/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/registry_names.golden")

// statPair ties one Stats field to the exported counters whose sum must
// equal it. A metric name ending in "#count" is a histogram's count,
// one ending in "#gauge" a gauge's value.
type statPair struct {
	field   string
	stat    uint64
	metrics []string
	// mayBeZero marks a field the test traffic cannot drive.
	mayBeZero bool
}

// registryCase is one layer under test: run records traffic and drops,
// attaching the registry partway through where the layer allows it,
// and returns the registry with the layer's Stats fields paired to
// their metrics.
type registryCase struct {
	name string
	run  func(t *testing.T) (*telemetry.Telemetry, []statPair)
}

// TestRegistryEqualsStats checks that every Stats field of ipcore,
// netdev, netio, the aiu flow cache and a scheduler equals its exported
// metric, including events recorded before the registry was attached,
// and pins the set of exported full names in a golden file. Every layer
// exports its losses in one family, eisr_drops_total, whose every
// series names its layer and reason.
func TestRegistryEqualsStats(t *testing.T) {
	cases := []registryCase{
		{"ipcore", ipcoreRegistryCase},
		{"netdev", netdevRegistryCase},
		{"netio", netioRegistryCase},
		{"aiu", aiuRegistryCase},
		{"sched", schedRegistryCase},
	}
	var names []string
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tel, pairs := c.run(t)
			snap := tel.Snapshot()
			byFull := make(map[string]telemetry.MetricValue, len(snap))
			for _, mv := range snap {
				byFull[mv.Full] = mv
				names = append(names, c.name+"\t"+mv.Kind+"\t"+mv.Full)
			}
			for _, p := range pairs {
				var sum uint64
				for _, full := range p.metrics {
					name, hist := strings.CutSuffix(full, "#count")
					name, gauge := strings.CutSuffix(name, "#gauge")
					mv, ok := byFull[name]
					if !ok {
						t.Errorf("%s: metric %s not exported", p.field, name)
						continue
					}
					switch {
					case hist:
						sum += mv.Hist.Count
					case gauge:
						sum += uint64(mv.Gauge)
					default:
						sum += mv.Counter
					}
				}
				if sum != p.stat {
					t.Errorf("%s = %d, exported %v sum to %d", p.field, p.stat, p.metrics, sum)
				}
				if p.stat == 0 && !p.mayBeZero {
					t.Errorf("%s = 0: the test traffic did not exercise it", p.field)
				}
			}
		})
	}
	sort.Strings(names)
	dropFamilies := map[string]bool{}
	for _, n := range names {
		full := n[strings.LastIndexByte(n, '\t')+1:]
		family, labels, _ := strings.Cut(full, "{")
		if !strings.Contains(family, "drop") {
			continue
		}
		dropFamilies[family] = true
		if !strings.HasPrefix(labels, `layer="`) || !strings.Contains(labels, `,reason="`) {
			t.Errorf("drop series %s does not name its layer and reason", full)
		}
	}
	if len(dropFamilies) != 1 || !dropFamilies["eisr_drops_total"] {
		t.Errorf("drop families exported: %v, want only eisr_drops_total", dropFamilies)
	}
	got := strings.Join(names, "\n") + "\n"
	golden := filepath.Join("testdata", "registry_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported metric names differ from %s (rerun with -update only for an intended change)\ngot:\n%s", golden, got)
	}
}

func udpDatagram(t *testing.T, dst string, sport uint16, payload int) []byte {
	t.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr(dst),
		SrcPort: sport, DstPort: 9, Payload: make([]byte, payload),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestPacket(t *testing.T, data []byte, inIf int32) *pkt.Packet {
	t.Helper()
	p, err := pkt.NewPacket(data, inIf)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// verdictInstance rejects packets from source port 1 and panics on
// source port 2.
type verdictInstance struct{}

func (verdictInstance) InstanceName() string { return "verdict0" }

func (verdictInstance) HandlePacket(p *pkt.Packet) error {
	switch p.Key.SrcPort {
	case 1:
		return fmt.Errorf("rejected")
	case 2:
		panic("verdict0 fault")
	}
	return nil
}

// ipcoreRegistryCase drives every core verdict through a plugin-mode
// router with a worker pool whose workers never start, so Submit sheds
// once the owning queue is full. The core registers its cells at New:
// it has no before-attach phase, but its interfaces do (AddInterface).
func ipcoreRegistryCase(t *testing.T) (*telemetry.Telemetry, []statPair) {
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("20.0.0.0/8"), routing.NextHop{IfIndex: 1})
	routes.Add(pkt.MustParsePrefix("30.0.0.0/8"), routing.NextHop{IfIndex: 7}) // no such interface
	gates := []pcu.Type{pcu.TypeSecurity}
	a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL}, gates...)
	tel := telemetry.New()
	r, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, Gates: gates, AIU: a, Routes: routes,
		VerifyChecksums: true, Workers: 2, Tel: tel,
		Guard: pcu.NewGuard(pcu.PolicyForward, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := netdev.NewInterface(0, netdev.Config{Name: "in0", Addr: pkt.MustParseAddr("10.0.0.254")})
	out := netdev.NewInterface(1, netdev.Config{Name: "out0"})
	if err := in.Inject(udpDatagram(t, "20.0.0.1", 3, 8)); err != nil {
		t.Fatal(err)
	}
	r.AddInterface(in)
	r.AddInterface(out)
	if _, err := a.Bind(pcu.TypeSecurity, aiu.MatchAll(), verdictInstance{}, nil); err != nil {
		t.Fatal(err)
	}
	traffic := func() {
		forward := func(data []byte) { r.Forward(newTestPacket(t, data, 0)) }
		r.Forward(in.Poll())
		forward(udpDatagram(t, "20.0.0.1", 3, 8))   // forwarded
		forward(udpDatagram(t, "10.0.0.254", 3, 8)) // delivered
		forward(udpDatagram(t, "40.0.0.1", 3, 8))   // no route
		forward(udpDatagram(t, "30.0.0.1", 3, 8))   // no output
		forward(udpDatagram(t, "20.0.0.1", 1, 8))   // plugin drop
		forward(udpDatagram(t, "20.0.0.1", 2, 8))   // degraded, forwarded
		bad := udpDatagram(t, "20.0.0.1", 3, 8)
		bad[10] ^= 0xff
		forward(bad) // bad checksum
		expired := udpDatagram(t, "20.0.0.1", 3, 8)
		for expired[8] > 0 {
			if _, err := pkt.DecTTLv4(expired); err != nil {
				t.Fatal(err)
			}
		}
		forward(expired) // TTL expired
		malformed := udpDatagram(t, "20.0.0.1", 3, 8)
		malformed[0] = 0x55
		r.Forward(&pkt.Packet{Data: malformed, OutIf: -1})
		shed := newTestPacket(t, udpDatagram(t, "20.0.0.1", 4, 8), 0)
		for i := 0; i < 1100; i++ {
			r.Pool().Submit(shed)
		}
		if err := in.Inject(udpDatagram(t, "20.0.0.1", 3, 8)); err != nil {
			t.Fatal(err)
		}
	}
	traffic()
	traffic()
	s := r.Stats()
	verdict := func(v string) string { return `eisr_verdicts_total{verdict="` + v + `"}` }
	reason := func(why string) string { return `eisr_drops_total{layer="ipcore",reason="` + why + `"}` }
	var allDrops []string
	for _, why := range []string{"overload", "bad-checksum", "malformed", "ttl-expired", "no-route", "no-output", "plugin", "plugin-fault", "queue-full", "mtu"} {
		allDrops = append(allDrops, reason(why))
	}
	return tel, []statPair{
		{field: "Forwarded", stat: s.Forwarded, metrics: []string{verdict("forwarded")}},
		{field: "Delivered", stat: s.Delivered, metrics: []string{verdict("delivered")}},
		{field: "Dropped", stat: s.Dropped, metrics: []string{verdict("dropped")}},
		{field: "Dropped (every reason, sheds included)", stat: s.Dropped, metrics: allDrops},
		{field: "TTLExpired", stat: s.TTLExpired, metrics: []string{reason("ttl-expired")}},
		{field: "BadChecksum", stat: s.BadChecksum, metrics: []string{reason("bad-checksum")}},
		{field: "NoRoute", stat: s.NoRoute, metrics: []string{reason("no-route")}},
		{field: "PluginDrops", stat: s.PluginDrops, metrics: []string{reason("plugin")}},
		{field: "Degraded", stat: s.Degraded, metrics: []string{"eisr_degraded_packets_total"}},
		{field: "in0 RxPackets", stat: in.Stats().RxPackets, metrics: []string{`eisr_netdev_packets_total{iface="in0",dir="rx"}`}},
	}
}

// fullDriver is a wire driver whose TX ring is always full.
type fullDriver struct{}

func (fullDriver) Start()                         {}
func (fullDriver) Stop()                          {}
func (fullDriver) TransmitWire(*pkt.Packet) error { return netdev.ErrRingFull }

// netdevRegistryCase drives every interface counter, half before
// SetTelemetry and half after.
func netdevRegistryCase(t *testing.T) (*telemetry.Telemetry, []statPair) {
	ifc := netdev.NewInterface(3, netdev.Config{Name: "nd0", MTU: 256, RxRing: 2})
	good := udpDatagram(t, "20.0.0.1", 3, 8)
	big := make([]byte, 300)
	traffic := func() {
		for i := 0; i < 4; i++ { // held, never released: the pool runs dry
			if err := ifc.Inject(good); err != nil {
				t.Fatal(err)
			}
			ifc.Poll()
		}
		ifc.Inject(good)
		ifc.Inject(good)
		ifc.Inject(good) // ring full
		for ifc.Poll() != nil {
		}
		ifc.Inject(big)                   // too big
		ifc.Inject([]byte{0x45, 0, 0, 4}) // malformed
		ifc.Inject(good)
		ifc.Poll()
		ifc.Transmit(newTestPacket(t, good, 3))
		ifc.Transmit(&pkt.Packet{Data: big})
		ifc.SetUp(false)
		ifc.Inject(good)
		ifc.Transmit(newTestPacket(t, good, 3))
		ifc.SetUp(true)
		ifc.AttachDriver(fullDriver{})
		ifc.Transmit(newTestPacket(t, good, 3))
		ifc.AttachDriver(nil)
	}
	traffic()
	tel := telemetry.New()
	ifc.SetTelemetry(tel)
	traffic()
	s := ifc.Stats()
	m := func(dir string) string { return `{iface="nd0",dir="` + dir + `"}` }
	drop := func(dir, why string) string {
		return `eisr_drops_total{layer="netdev",iface="nd0",dir="` + dir + `",reason="` + why + `"}`
	}
	return tel, []statPair{
		{field: "RxPackets", stat: s.RxPackets, metrics: []string{"eisr_netdev_packets_total" + m("rx")}},
		{field: "RxBytes", stat: s.RxBytes, metrics: []string{"eisr_netdev_bytes_total" + m("rx")}},
		{field: "TxPackets", stat: s.TxPackets, metrics: []string{"eisr_netdev_packets_total" + m("tx")}},
		{field: "TxBytes", stat: s.TxBytes, metrics: []string{"eisr_netdev_bytes_total" + m("tx")}},
		{field: "RxDrops", stat: s.RxDrops, metrics: []string{
			drop("rx", "ring-full"), drop("rx", "too-big"), drop("rx", "down"), drop("rx", "malformed"),
		}},
		{field: "RxDropRing", stat: s.RxDropRing, metrics: []string{drop("rx", "ring-full")}},
		{field: "RxDropTooBig", stat: s.RxDropTooBig, metrics: []string{drop("rx", "too-big")}},
		{field: "RxDropDown", stat: s.RxDropDown, metrics: []string{drop("rx", "down")}},
		{field: "RxDropMalformed", stat: s.RxDropMalformed, metrics: []string{drop("rx", "malformed")}},
		{field: "TxDrops", stat: s.TxDrops, metrics: []string{
			drop("tx", "ring-full"), drop("tx", "too-big"), drop("tx", "down"),
		}},
		{field: "TxDropRing", stat: s.TxDropRing, metrics: []string{drop("tx", "ring-full")}},
		{field: "TxDropTooBig", stat: s.TxDropTooBig, metrics: []string{drop("tx", "too-big")}},
		{field: "TxDropDown", stat: s.TxDropDown, metrics: []string{drop("tx", "down")}},
		{field: "MbufFallback", stat: s.MbufFallback, metrics: []string{`eisr_netdev_mbuf_fallback_total{iface="nd0"}`}},
	}
}

// netioRegistryCase drives a loopback UDP link. The link registers its
// counters at construction, so it has no before-attach phase; reading
// the counters after Stop makes them final.
func netioRegistryCase(t *testing.T) (*telemetry.Telemetry, []statPair) {
	tel := telemetry.New()
	ifc := netdev.NewInterface(4, netdev.Config{Name: "wire0", MTU: 256, RxRing: 4})
	l, err := netio.NewUDPLink(ifc, netio.Config{Local: "127.0.0.1:0", TxRing: 2, Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	good := udpDatagram(t, "20.0.0.1", 3, 8)
	// Before Start nothing drains the TX ring: two egress packets fill
	// it and the third is refused with ErrRingFull (a drop the
	// interface counts, not the link). The two queued ones fail (no
	// peer yet) once the link starts.
	for i := 0; i < 3; i++ {
		l.TransmitWire(newTestPacket(t, good, 4))
	}
	src, err := net.Dial("udp", l.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Nothing reads the socket before Start either: a flood overflows
	// its receive buffer, and the kernel's drops there are the link's
	// to report (kernel/rcvbuf). The interface counts what got through.
	flood := 0
	for l.Stats().RxDropRcvbuf == 0 && flood < 1<<16 {
		if _, err := src.Write(good); err != nil {
			t.Fatal(err)
		}
		flood++
	}
	l.Start()
	deadline := time.Now().Add(5 * time.Second)
	waitFor := func(done func(netdev.LinkStats) bool) {
		for !done(l.Stats()) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	// The flood is all accounted for, so the socket is drained before
	// the datagrams below arrive.
	waitFor(func(s netdev.LinkStats) bool {
		is := ifc.Stats()
		return s.TxErrors == 2 && is.RxPackets+is.RxDrops+s.RxDropRcvbuf == uint64(flood)
	})
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		l.TransmitWire(newTestPacket(t, good, 4))
	}
	rx := [][]byte{
		good, good,
		{pkt.PathMagic, 1, 2, 3},     // bad path encapsulation
		make([]byte, 300),            // too big
		{0x45, 0, 0, 4, 0, 0, 0, 0},  // bad key
		good, good, good, good, good, // the flood filled the 4-slot RX ring: ring full
	}
	// Only the bad path and the kernel's drops are the link's to count;
	// the interface counts the rest, and the settle check below sums
	// both.
	for _, d := range rx {
		if _, err := src.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(func(s netdev.LinkStats) bool {
		is := ifc.Stats()
		return s.TxPackets == 2 && is.RxPackets+is.RxDrops+s.RxDropBadPath+s.RxDropRcvbuf == uint64(flood+len(rx))
	})
	l.Stop()
	s := l.Stats()
	dir := func(d string) string { return `{iface="wire0",dir="` + d + `"}` }
	return tel, []statPair{
		{field: "RxDropBadPath", stat: s.RxDropBadPath, metrics: []string{`eisr_drops_total{layer="netio",iface="wire0",reason="bad-path"}`}},
		{field: "RxDropRcvbuf", stat: s.RxDropRcvbuf, metrics: []string{`eisr_drops_total{layer="kernel",iface="wire0",reason="rcvbuf"}`}},
		{field: "RxErrTransient", stat: s.RxErrTransient, metrics: []string{`eisr_netio_rx_errors_total{iface="wire0"}`}, mayBeZero: true},
		{field: "TxPackets", stat: s.TxPackets, metrics: []string{"eisr_netio_packets_total" + dir("tx")}},
		{field: "TxBytes", stat: s.TxBytes, metrics: []string{"eisr_netio_bytes_total" + dir("tx")}},
		{field: "TxErrors", stat: s.TxErrors, metrics: []string{`eisr_netio_tx_errors_total{iface="wire0"}`}},
		{field: "Batches", stat: s.Batches, metrics: []string{`eisr_netio_rx_batch{iface="wire0"}#count`}},
		{field: "TxBatches", stat: s.TxBatches, metrics: []string{`eisr_netio_tx_batch{iface="wire0"}#count`}},
	}
}

// nullInstance accepts every packet.
type nullInstance struct{}

func (nullInstance) InstanceName() string           { return "null0" }
func (nullInstance) HandlePacket(*pkt.Packet) error { return nil }

// aiuRegistryCase drives the flow cache through both lookup paths
// (per packet and per vector), past its capacity and through Remove,
// half before SetTelemetry and half after.
func aiuRegistryCase(t *testing.T) (*telemetry.Telemetry, []statPair) {
	a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL, MaxFlows: 4, FlowShards: 1}, pcu.TypeSched)
	if _, err := a.Bind(pcu.TypeSched, aiu.MatchAll(), nullInstance{}, nil); err != nil {
		t.Fatal(err)
	}
	slot, _ := a.Slot(pcu.TypeSched)
	traffic := func() {
		now := time.Now()
		for f := uint16(0); f < 8; f++ {
			for rep := 0; rep < 3; rep++ {
				a.LookupGate(newTestPacket(t, udpDatagram(t, "20.0.0.1", 100+f, 8), 0), pcu.TypeSched, now, nil)
			}
		}
		lanes := make([]aiu.Lane, 6)
		for i := range lanes {
			lanes[i].P = newTestPacket(t, udpDatagram(t, "20.0.0.1", 200+uint16(i%3), 8), 0)
		}
		a.Resolve(lanes, slot, now)
		a.FlowTable().Remove(newTestPacket(t, udpDatagram(t, "20.0.0.1", 107, 8), 0).Key)
	}
	traffic()
	tel := telemetry.New()
	a.SetTelemetry(tel)
	traffic()
	s := a.FlowTable().Stats()
	_, first := a.Stats()
	return tel, []statPair{
		{field: "FlowStats.Hits", stat: s.Hits, metrics: []string{`eisr_flowcache_total{result="hit"}`}},
		{field: "FlowStats.Misses", stat: s.Misses, metrics: []string{`eisr_flowcache_total{result="miss"}`}},
		{field: "FlowStats.Inserts", stat: s.Inserts, metrics: []string{"eisr_flowcache_inserts_total"}},
		{field: "FlowStats.Recycled+Removed", stat: s.Recycled + s.Removed, metrics: []string{"eisr_flowcache_evictions_total"}},
		{field: "FlowStats.Live", stat: uint64(s.Live), metrics: []string{"eisr_flowcache_live#gauge"}},
		{field: "firstPacket", stat: first, metrics: []string{"eisr_classifier_first_packet_total"}},
	}
}

// schedRegistryCase drives one DRR instance's metric set: admitted and
// served packets, a queue-limit rejection (the core's to count, so no
// scheduler drop moves), and a flow queue reset for a newer flow with
// packets still queued, which the scheduler counts as evicted. The instance registers
// its cells at creation, so it has no before-attach phase.
func schedRegistryCase(t *testing.T) (*telemetry.Telemetry, []statPair) {
	tel := telemetry.New()
	d := sched.NewDRR(1500, 4)
	d.SetTelemetry(tel.SchedMetrics("drr", "t"))
	good := udpDatagram(t, "20.0.0.1", 3, 8)
	qa, _ := d.Queue(0, 0)
	qb, _ := d.Queue(1, 0)
	for i := 0; i < 5; i++ { // the fifth is over the queue limit
		d.EnqueueFlow(qa, newTestPacket(t, good, 0))
	}
	d.EnqueueFlow(qb, newTestPacket(t, good, 0))
	d.Dequeue()
	evicted := qa.Len()
	d.Queue(0, 1)
	l := `{plugin="drr",instance="t"}`
	return tel, []statPair{
		{field: "evicted (backlog of the reset queue)", stat: uint64(evicted),
			metrics: []string{`eisr_drops_total{layer="sched",plugin="drr",instance="t",reason="evicted"}`}},
		{field: "Len", stat: uint64(d.Len()), metrics: []string{"eisr_sched_backlog" + l + "#gauge"}},
		{field: "Owned", stat: uint64(owned(d)), metrics: []string{"eisr_sched_queues" + l + "#gauge"}},
		{field: "enqueued", stat: uint64(d.Len() + evicted + 1), metrics: []string{"eisr_sched_enqueued_total" + l}},
	}
}

// owned counts a per-flow scheduler's owned queues.
func owned(d *sched.DRR) int {
	n := 0
	d.Each(func(uint32, uint64, *sched.DRRQueue) { n++ })
	return n
}
