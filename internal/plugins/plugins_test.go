package plugins

import (
	"strings"
	"testing"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// rig wires a full plugin-mode router with a PCU.
type rig struct {
	env  *Env
	reg  *pcu.Registry
	r    *ipcore.Router
	a    *aiu.AIU
	sink *netdev.Interface
}

func newRig(t *testing.T, gates ...pcu.Type) *rig {
	t.Helper()
	if gates == nil {
		gates = ipcore.DefaultGates
	}
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		t.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	a := aiu.New(aiu.Config{InitialFlows: 64, MaxFlows: 1024}, gates...)
	r, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, AIU: a, Routes: routes, Gates: gates,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := netdev.NewInterface(0, netdev.Config{})
	out := netdev.NewInterface(1, netdev.Config{})
	sink := netdev.NewInterface(2, netdev.Config{})
	netdev.Connect(out, sink)
	r.AddInterface(in)
	r.AddInterface(out)
	env := &Env{Router: r, AIU: a}
	return &rig{env: env, reg: pcu.NewRegistry(), r: r, a: a, sink: sink}
}

// create sends create-instance and returns the instance.
func (rg *rig) create(t *testing.T, plugin string, args map[string]string) pcu.Instance {
	t.Helper()
	msg := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: args}
	if err := rg.reg.Send(plugin, msg); err != nil {
		t.Fatal(err)
	}
	return msg.Reply.(pcu.Instance)
}

// bind sends register-instance.
func (rg *rig) bind(t *testing.T, plugin string, inst pcu.Instance, args map[string]string) {
	t.Helper()
	msg := &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: inst, Args: args}
	if err := rg.reg.Send(plugin, msg); err != nil {
		t.Fatal(err)
	}
}

func udp(t *testing.T, src string, sport uint16, size int) *pkt.Packet {
	t.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr(src), Dst: pkt.MustParseAddr("20.0.0.1"),
		SrcPort: sport, DstPort: 9, Payload: make([]byte, size),
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

// schedPlugins are the per-flow scheduling plugins: each table test
// below runs once per plugin and reaches the instance only through PCU
// messages and the ipcore.Drainer interface.
var schedPlugins = []string{"drr", "eiffel"}

// loadSched loads both per-flow scheduling plugins into the rig.
func (rg *rig) loadSched(t *testing.T) {
	t.Helper()
	for _, pl := range []pcu.Plugin{NewDRRPlugin(rg.env), NewEiffelPlugin(rg.env)} {
		if err := rg.reg.Load(pl); err != nil {
			t.Fatal(err)
		}
	}
}

// shares sends the "stats" message and returns the per-flow snapshot.
func (rg *rig) shares(t *testing.T, plugin string, inst pcu.Instance) []FlowShare {
	t.Helper()
	msg := &pcu.Message{Kind: pcu.MsgCustom, Verb: "stats", Instance: inst}
	if err := rg.reg.Send(plugin, msg); err != nil {
		t.Fatal(err)
	}
	return msg.Reply.([]FlowShare)
}

func TestDRRPluginEndToEnd(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1", "quantum": "1500"})
			drainer := inst.(ipcore.Drainer)
			// Reserved flow gets weight 3; everything else weight 1.
			rg.bind(t, plugin, inst, map[string]string{
				"filter": "10.0.0.1, *, UDP, 111, *, *", "weight": "3",
			})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})

			// Backlog two flows without draining.
			for i := 0; i < 60; i++ {
				if !rg.r.Forward(udp(t, "10.0.0.1", 111, 500)) {
					t.Fatal("forward reserved failed")
				}
				if !rg.r.Forward(udp(t, "10.0.0.2", 222, 500)) {
					t.Fatal("forward best-effort failed")
				}
			}
			if drainer.Backlog() != 120 {
				t.Fatalf("backlog = %d", drainer.Backlog())
			}
			// Serve 60 packets; reserved flow should get ~3x the service.
			for i := 0; i < 60; i++ {
				rg.r.TxDrain(1, 1)
			}
			if drainer.Backlog() != 60 {
				t.Fatalf("backlog after 60 served = %d", drainer.Backlog())
			}
			var reserved, best uint64
			for _, s := range rg.shares(t, plugin, inst) {
				if s.Weight == 3 {
					reserved = s.Served
				} else {
					best = s.Served
				}
			}
			if reserved == 0 || best == 0 {
				t.Fatalf("shares: reserved=%d best=%d", reserved, best)
			}
			ratio := float64(reserved) / float64(best)
			if ratio < 2.4 || ratio > 3.6 {
				t.Errorf("weighted share ratio = %.2f want ~3", ratio)
			}
		})
	}
}

// TestSchedInstanceServesOnlyItsPort: a scheduling instance created
// for one interface takes only the packets routed to it. Bound
// match-all on interface 0, it leaves a packet routed out interface 1
// to that interface's default FIFO, which ProcessOne transmits at once;
// once the route points at interface 0, the instance takes the packet.
func TestSchedInstanceServesOnlyItsPort(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "0"})
			drainer := inst.(ipcore.Drainer)
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})

			if !rg.r.ProcessOne(udp(t, "10.0.0.1", 111, 64)) {
				t.Fatal("packet routed out interface 1 was not forwarded")
			}
			if tx := rg.r.Interface(1).Stats().TxPackets; tx != 1 {
				t.Errorf("interface 1 TX = %d, want 1", tx)
			}
			if b := drainer.Backlog(); b != 0 {
				t.Errorf("interface 0's instance took a packet routed out 1: backlog %d", b)
			}

			rg.r.Routes().Add(pkt.MustParsePrefix("20.0.0.0/8"), routing.NextHop{IfIndex: 0})
			if !rg.r.Forward(udp(t, "10.0.0.1", 111, 64)) {
				t.Fatal("packet routed out interface 0 was not forwarded")
			}
			if b := drainer.Backlog(); b != 1 {
				t.Errorf("interface 0's instance backlog = %d, want 1", b)
			}
			if sent := rg.r.TxDrain(0, 4); sent != 1 {
				t.Errorf("TxDrain(0) sent %d, want 1", sent)
			}
		})
	}
}

// TestDRRPluginFlowEviction: an evicted flow's queue leaves the listing
// at once, and the packets it still holds are dropped as evicted — and
// its slot's queue reset in place — when the slot's next flow claims it.
// Here that is the same flow returning: its new record is the freed one.
func TestDRRPluginFlowEviction(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.env.Tel = telemetry.New()
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})
			rg.r.Forward(udp(t, "10.0.0.1", 1, 100))
			rg.r.Forward(udp(t, "10.0.0.1", 1, 100))
			if got := len(rg.shares(t, plugin, inst)); got != 1 {
				t.Fatalf("queues = %d", got)
			}
			rg.a.FlowTable().FlushWhere(func(*aiu.FlowRecord) bool { return true })
			if got := len(rg.shares(t, plugin, inst)); got != 0 {
				t.Errorf("queues after eviction = %d", got)
			}
			rg.r.Forward(udp(t, "10.0.0.1", 1, 100))
			if got := inst.(ipcore.Drainer).Backlog(); got != 1 {
				t.Errorf("backlog after the slot's next flow arrived = %d, want 1", got)
			}
			if got := len(rg.shares(t, plugin, inst)); got != 1 {
				t.Errorf("queues after the flow returned = %d", got)
			}
			drops := `eisr_drops_total{layer="sched",plugin="` + plugin + `",instance="` + inst.InstanceName() + `",reason="evicted"}`
			if mv, ok := rg.env.Tel.Find(drops); !ok || mv.Counter != 2 {
				t.Errorf("evicted drops = %+v (%v), want 2", mv, ok)
			}
		})
	}
}

// TestSchedPluginTelemetryLabels: with telemetry on, every eisr_sched_*
// cell an instance registers carries its plugin and instance names,
// and the instance's traffic moves its own cells.
func TestSchedPluginTelemetryLabels(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.env.Tel = telemetry.New()
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})
			for i := 0; i < 3; i++ {
				rg.r.Forward(udp(t, "10.0.0.1", 1, 100))
			}
			cells := 0
			for _, mv := range rg.env.Tel.Snapshot() {
				if !strings.HasPrefix(mv.Family, "eisr_sched_") {
					continue
				}
				cells++
				want := []telemetry.Label{{Key: "plugin", Value: plugin}, {Key: "instance", Value: inst.InstanceName()}}
				if len(mv.Labels) != 2 || mv.Labels[0] != want[0] || mv.Labels[1] != want[1] {
					t.Errorf("%s: labels %v, want %v", mv.Family, mv.Labels, want)
				}
				if mv.Family == "eisr_sched_enqueued_total" && mv.Counter != 3 {
					t.Errorf("%s = %d, want 3", mv.Full, mv.Counter)
				}
			}
			if cells == 0 {
				t.Fatal("no eisr_sched_* cells registered")
			}
		})
	}
}

func TestHFSCPluginClassesAndBinding(t *testing.T) {
	rg := newRig(t)
	rg.reg.Load(NewHFSCPlugin(rg.env))
	inst := rg.create(t, "hfsc", map[string]string{"iface": "1", "rate": "1000000"}).(*HFSCInstance)
	if err := rg.reg.Send("hfsc", &pcu.Message{
		Kind: pcu.MsgCustom, Verb: "add-class", Instance: inst,
		Args: map[string]string{"name": "video", "rt": "300000", "ls": "300000"},
	}); err != nil {
		t.Fatal(err)
	}
	rg.bind(t, "hfsc", inst, map[string]string{
		"filter": "10.0.0.1, *, UDP, *, *, *", "class": "video",
	})
	// Catch-all so every other flow reaches the instance's default
	// class rather than bypassing the scheduler.
	rg.bind(t, "hfsc", inst, map[string]string{"filter": "*, *, *, *, *, *"})
	// Unknown class rejected.
	msg := &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: inst,
		Args: map[string]string{"filter": "*, *, *, *, *, *", "class": "nonesuch"}}
	if err := rg.reg.Send("hfsc", msg); err == nil {
		t.Error("binding to unknown class should fail")
	}
	// Traffic lands in the right class; unbound flows hit default.
	for i := 0; i < 5; i++ {
		rg.r.Forward(udp(t, "10.0.0.1", 1, 500))
		rg.r.Forward(udp(t, "99.0.0.9", 2, 500))
	}
	if got := inst.Class("video"); got == nil {
		t.Fatal("class lost")
	}
	if inst.Backlog() != 10 {
		t.Fatalf("backlog = %d", inst.Backlog())
	}
	for i := 0; i < 10; i++ {
		if rg.r.TxDrain(1, 1) != 1 {
			t.Fatalf("drain %d failed", i)
		}
	}
	stats := inst.ClassStats()
	var video, def uint64
	for _, cs := range stats {
		switch cs.Name {
		case "video":
			video = cs.Served
		case "default":
			def = cs.Served
		}
	}
	if video == 0 || def == 0 {
		t.Errorf("class service: video=%d default=%d", video, def)
	}
}

func TestParseCurve(t *testing.T) {
	c, err := ParseCurve("125000")
	if err != nil || c.M1 != 125000 || c.M2 != 125000 {
		t.Errorf("linear: %+v %v", c, err)
	}
	c, err = ParseCurve("800000,0.01,200000")
	if err != nil || c.M1 != 8e5 || c.D != 0.01 || c.M2 != 2e5 {
		t.Errorf("two-piece: %+v %v", c, err)
	}
	if _, err := ParseCurve("a,b"); err == nil {
		t.Error("bad curve accepted")
	}
}

func TestFirewallPlugin(t *testing.T) {
	gates := []pcu.Type{pcu.TypeFirewall, pcu.TypeRouting, pcu.TypeSched}
	rg := newRig(t, gates...)
	rg.reg.Load(NewFirewallPlugin(rg.env))
	inst := rg.create(t, "firewall", map[string]string{"default": "allow"}).(*FirewallInstance)
	rg.bind(t, "firewall", inst, map[string]string{
		"filter": "10.66.0.0/16, *, *, *, *, *", "action": "deny",
	})
	rg.bind(t, "firewall", inst, map[string]string{
		"filter": "*, *, *, *, *, *", "action": "allow",
	})
	if !rg.r.ProcessOne(udp(t, "10.1.1.1", 1, 10)) {
		t.Error("allowed flow dropped")
	}
	if rg.r.ProcessOne(udp(t, "10.66.3.4", 1, 10)) {
		t.Error("denied flow forwarded")
	}
	st := inst.Snapshot()
	if st.Allowed != 1 || st.Denied != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestOptionsPluginRouterAlert(t *testing.T) {
	rg := newRig(t)
	rg.reg.Load(NewOptionsPlugin(rg.env))
	inst := rg.create(t, "options", nil).(*OptionsInstance)
	rg.bind(t, "options", inst, map[string]string{"filter": "*, *, *, *, *, *"})
	data, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("2001:db8::1"), Dst: pkt.MustParseAddr("2001:db8::2"),
		SrcPort: 1, DstPort: 2, Payload: []byte("x"),
		HopByHop: []pkt.HopByHopOption{{Type: pkt.Opt6RouterAlert, Data: []byte{0, 0}}},
	})
	p, _ := pkt.NewPacket(data, 0)
	p.Stamp = pkt.Nanotime()
	// Need a v6 route.
	rg.r.Routes().Add(pkt.MustParsePrefix("2000::/3"), routing.NextHop{IfIndex: 1})
	if !rg.r.ProcessOne(p) {
		t.Fatal("v6 packet dropped")
	}
	if st := inst.Snapshot(); st.RouterAlerts != 1 || st.Packets != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestStatsPluginReport(t *testing.T) {
	gates := []pcu.Type{pcu.TypeStats, pcu.TypeRouting, pcu.TypeSched}
	rg := newRig(t, gates...)
	rg.reg.Load(NewStatsPlugin(rg.env))
	inst := rg.create(t, "stats", nil).(*StatsInstance)
	rg.bind(t, "stats", inst, map[string]string{"filter": "*, *, *, *, *, *"})
	for i := 0; i < 4; i++ {
		rg.r.ProcessOne(udp(t, "10.0.0.1", 1, 100))
	}
	rg.r.ProcessOne(udp(t, "10.0.0.2", 2, 300))
	rep := inst.Report()
	if rep.Total.Packets != 5 {
		t.Fatalf("total = %+v", rep.Total)
	}
	if len(rep.TopFlows) != 2 {
		t.Fatalf("flows = %d", len(rep.TopFlows))
	}
	// Sorted by bytes: 4x128B vs 1x328B -> the 4-packet flow leads.
	if rep.TopFlows[0].Packets != 4 {
		t.Errorf("top flow = %+v", rep.TopFlows[0])
	}
	if rep.ByProto[pkt.ProtoUDP].Packets != 5 {
		t.Errorf("by-proto = %+v", rep.ByProto)
	}
	inst.Reset()
	if rep := inst.Report(); rep.Total.Packets != 0 {
		t.Error("reset did not clear")
	}
}

func TestTCPMonDetectsRetransmissions(t *testing.T) {
	gates := []pcu.Type{pcu.TypeMonitor, pcu.TypeRouting, pcu.TypeSched}
	rg := newRig(t, gates...)
	rg.reg.Load(NewTCPMonPlugin(rg.env))
	inst := rg.create(t, "tcpmon", nil).(*TCPMonInstance)
	rg.bind(t, "tcpmon", inst, map[string]string{"filter": "*, *, TCP, *, *, *"})

	send := func(seq uint32, flags uint8) {
		data, _ := pkt.BuildTCP(pkt.TCPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
			SrcPort: 5555, DstPort: 80, Seq: seq, Flags: flags, Payload: []byte("seg"),
		})
		p, _ := pkt.NewPacket(data, 0)
		p.Stamp = pkt.Nanotime()
		rg.r.ProcessOne(p)
	}
	send(100, pkt.TCPSyn)
	send(101, pkt.TCPAck)
	send(104, pkt.TCPAck)
	send(101, pkt.TCPAck) // retransmission
	send(104, pkt.TCPAck) // retransmission
	rep := inst.Report()
	if len(rep) != 1 {
		t.Fatalf("flows = %d", len(rep))
	}
	st := rep[0]
	if st.Syns != 1 || st.Packets != 5 {
		t.Errorf("state: %+v", st)
	}
	if st.Retrans != 2 {
		t.Errorf("retransmissions = %d want 2", st.Retrans)
	}
}

func TestRoutePluginL4Switching(t *testing.T) {
	rg := newRig(t)
	rg.reg.Load(NewRoutePlugin(rg.env))
	inst := rg.create(t, "l4route", nil).(*RouteInstance)
	// Web traffic from 10/8 goes out if 0 (back where it came, for the
	// test) instead of the default if 1.
	rg.bind(t, "l4route", inst, map[string]string{
		"filter": "10.0.0.0/8, *, UDP, *, 9, *", "dev": "0",
	})
	p := udp(t, "10.0.0.1", 1234, 10)
	if !rg.r.Forward(p) {
		t.Fatal("forward failed")
	}
	if p.OutIf != 0 {
		t.Errorf("L4-switched OutIf = %d want 0", p.OutIf)
	}
	// Unmatched flow takes the destination route.
	q := udp(t, "77.0.0.1", 1, 10)
	rg.r.Forward(q)
	if q.OutIf != 1 {
		t.Errorf("default OutIf = %d want 1", q.OutIf)
	}
	if st := inst.Snapshot(); st.Switched != 1 {
		t.Errorf("switched = %d", st.Switched)
	}
}

func TestREDPluginDropsUnderLoad(t *testing.T) {
	rg := newRig(t)
	rg.reg.Load(NewREDPlugin(rg.env))
	inst := rg.create(t, "red", map[string]string{
		"iface": "1", "minth": "5", "maxth": "15", "qlen": "32",
	}).(*REDInstance)
	rg.bind(t, "red", inst, map[string]string{"filter": "*, *, *, *, *, *"})
	// Flood without draining: early drops must kick in between minth
	// and the hard queue limit.
	forwarded := 0
	for i := 0; i < 64; i++ {
		if rg.r.Forward(udp(t, "10.0.0.1", 1, 100)) {
			forwarded++
		}
	}
	st := inst.Snapshot()
	if st.EarlyDrops == 0 {
		t.Error("no early drops under sustained overload")
	}
	if st.Enqueued == 0 {
		t.Error("nothing enqueued")
	}
	if int(st.Enqueued) > 32 {
		t.Errorf("enqueued %d beyond queue limit", st.Enqueued)
	}
	// Light load after drain: no drops.
	for inst.Drain() != nil {
	}
	inst2 := rg.create(t, "red", map[string]string{"iface": "1", "minth": "5", "maxth": "15"}).(*REDInstance)
	for i := 0; i < 3; i++ {
		inst2.HandlePacket(udp(t, "10.0.0.9", 3, 50))
		inst2.Drain()
	}
	if st := inst2.Snapshot(); st.EarlyDrops != 0 {
		t.Errorf("early drops at low load: %+v", st)
	}
}

func TestNullPluginDispatch(t *testing.T) {
	rg := newRig(t)
	rg.reg.Load(NewNullPlugin(rg.env, pcu.TypeSecurity))
	inst := rg.create(t, "null-security", nil).(*NullInstance)
	rg.bind(t, "null-security", inst, map[string]string{"filter": "*, *, *, *, *, *"})
	for i := 0; i < 7; i++ {
		rg.r.ProcessOne(udp(t, "10.0.0.1", 1, 10))
	}
	if inst.Calls != 7 {
		t.Errorf("null instance called %d times", inst.Calls)
	}
}

func TestFreeInstanceClearsBindings(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})
			if err := rg.reg.Send(plugin, &pcu.Message{Kind: pcu.MsgFreeInstance, Instance: inst}); err != nil {
				t.Fatal(err)
			}
			ft, _ := rg.a.Table(pcu.TypeSched)
			if len(ft.Records()) != 0 {
				t.Error("filter bindings survive free-instance")
			}
			// The drainer is gone: forwarded packets take the default FIFO.
			p := udp(t, "10.0.0.1", 1, 10)
			if !rg.r.ProcessOne(p) {
				t.Fatal("forward after free failed")
			}
			if rg.sink.Poll() == nil {
				t.Error("packet lost after free-instance")
			}
		})
	}
}

func TestDeregisterInstanceMessage(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "10.0.0.0/8, *, UDP, *, *, *"})
			msg := &pcu.Message{
				Kind: pcu.MsgDeregisterInstance, Instance: inst,
				Args: map[string]string{"filter": "10.0.0.0/8, *, UDP, *, *, *"},
			}
			if err := rg.reg.Send(plugin, msg); err != nil {
				t.Fatal(err)
			}
			ft, _ := rg.a.Table(pcu.TypeSched)
			if len(ft.Records()) != 0 {
				t.Error("deregister left the binding")
			}
			// Unknown filter errors.
			if err := rg.reg.Send(plugin, msg); err == nil {
				t.Error("double deregister should fail")
			}
		})
	}
}

func TestPCURegistryLifecycle(t *testing.T) {
	rg := newRig(t)
	pl := NewDRRPlugin(rg.env)
	if err := rg.reg.Load(pl); err != nil {
		t.Fatal(err)
	}
	if err := rg.reg.Load(pl); err == nil {
		t.Error("duplicate load accepted")
	}
	inst := rg.create(t, "drr", map[string]string{"iface": "1"})
	if got := rg.reg.Instances(pl.PluginCode()); len(got) != 1 || got[0] != inst {
		t.Errorf("instances = %v", got)
	}
	if _, err := rg.reg.FindInstance("drr", inst.InstanceName()); err != nil {
		t.Error(err)
	}
	if err := rg.reg.Unload("drr"); err == nil {
		t.Error("unload with live instances accepted")
	}
	rg.reg.Send("drr", &pcu.Message{Kind: pcu.MsgFreeInstance, Instance: inst})
	if err := rg.reg.Unload("drr"); err != nil {
		t.Error(err)
	}
	if err := rg.reg.Send("drr", &pcu.Message{Kind: pcu.MsgCreateInstance}); err == nil {
		t.Error("send to unloaded plugin accepted")
	}
}
