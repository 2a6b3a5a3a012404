package eisr

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/ctl"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sspd"
)

// newTestRouter assembles a two-port plugin-mode router with a sink on
// port 1.
func newTestRouter(t *testing.T) (*Router, func(t *testing.T, src, dst string, sport uint16) bool) {
	t.Helper()
	r, err := New(Options{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddInterface(0, "lan", "192.0.2.1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddInterface(1, "wan", ""); err != nil {
		t.Fatal(err)
	}
	if err := r.AddRoute("0.0.0.0/0 dev 1"); err != nil {
		t.Fatal(err)
	}
	send := func(t *testing.T, src, dst string, sport uint16) bool {
		t.Helper()
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr(src), Dst: pkt.MustParseAddr(dst),
			SrcPort: sport, DstPort: 9, Payload: []byte("t"),
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := pkt.NewPacket(data, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.Stamp = pkt.Nanotime()
		return r.Core.ProcessOne(p)
	}
	return r, send
}

func TestRouterAssemblyAndForward(t *testing.T) {
	r, send := newTestRouter(t)
	if !send(t, "10.0.0.1", "20.0.0.1", 1000) {
		t.Fatal("forward failed")
	}
	if s := r.Core.Stats(); s.Forwarded != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLoadPluginLifecycle(t *testing.T) {
	r, send := newTestRouter(t)
	if err := r.LoadPlugin("drr"); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadPlugin("nonesuch"); err == nil {
		t.Error("unknown module loaded")
	}
	name, err := r.CreateInstance("drr", map[string]string{"iface": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("drr", name, map[string]string{"filter": "*, *, *, *, *, *", "weight": "2"}); err != nil {
		t.Fatal(err)
	}
	if !send(t, "10.0.0.1", "20.0.0.1", 1) {
		t.Fatal("forward through DRR failed")
	}
	reply, err := r.Message("drr", name, "stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply == nil {
		t.Error("stats reply empty")
	}
	if err := r.Deregister("drr", name, "*, *, *, *, *, *"); err != nil {
		t.Fatal(err)
	}
	if err := r.FreeInstance("drr", name); err != nil {
		t.Fatal(err)
	}
	if err := r.UnloadPlugin("drr"); err != nil {
		t.Fatal(err)
	}
}

func TestNullModuleByGateName(t *testing.T) {
	r, _ := newTestRouter(t)
	for _, name := range []string{"null-options", "null-security", "null-sched"} {
		if err := r.LoadPlugin(name); err != nil {
			t.Errorf("LoadPlugin(%s): %v", name, err)
		}
	}
	if err := r.LoadPlugin("null-bogus"); err == nil {
		t.Error("bogus null gate loaded")
	}
}

func TestModulesDirectory(t *testing.T) {
	have := map[string]bool{}
	for _, m := range Modules() {
		have[m] = true
	}
	for _, want := range []string{"drr", "hfsc", "red", "ipsec", "firewall", "stats", "tcpmon", "l4route", "options"} {
		if !have[want] {
			t.Errorf("module %q missing from directory %v", want, Modules())
		}
	}
}

func TestControlSocketRoundTrip(t *testing.T) {
	r, send := newTestRouter(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.ServeControl(ln)
	defer ln.Close()

	c, err := ctl.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.LoadPlugin("drr"); err != nil {
		t.Fatal(err)
	}
	name, err := c.CreateInstance("drr", map[string]string{"iface": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if name == "" {
		t.Fatal("empty instance name")
	}
	if err := c.Register("drr", name, map[string]string{"filter": "*, *, *, *, *, *"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRoute("172.16.0.0/12 dev 1 metric 3"); err != nil {
		t.Fatal(err)
	}
	send(t, "10.0.0.1", "172.16.1.1", 5)

	// Listings round-trip as JSON.
	data, err := c.Do(&ctl.Request{Op: ctl.OpRoutes})
	if err != nil {
		t.Fatal(err)
	}
	var routes []map[string]any
	if err := json.Unmarshal(data, &routes); err != nil {
		t.Fatal(err)
	}
	if len(routes) != 2 {
		t.Errorf("routes = %v", routes)
	}
	data, err = c.Do(&ctl.Request{Op: ctl.OpFilters, Gate: "sched"})
	if err != nil {
		t.Fatal(err)
	}
	var filters []string
	json.Unmarshal(data, &filters)
	if len(filters) != 1 {
		t.Errorf("filters = %v", filters)
	}
	if _, err := c.Do(&ctl.Request{Op: ctl.OpFilters, Gate: "bogus"}); err == nil {
		t.Error("bogus gate accepted")
	}
	// Stats ops respond.
	if _, err := c.Do(&ctl.Request{Op: ctl.OpStats}); err != nil {
		t.Error(err)
	}
	if _, err := c.Do(&ctl.Request{Op: ctl.OpFlows}); err != nil {
		t.Error(err)
	}
	// Error propagation.
	if err := c.DelRoute("9.9.9.9/32"); err == nil {
		t.Error("deleting a missing route should fail")
	}
	if err := c.FreeInstance("drr", "nope"); err == nil {
		t.Error("freeing a missing instance should fail")
	}
}

func TestSSPDaemonEndToEnd(t *testing.T) {
	r, send := newTestRouter(t)
	ctlLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.ServeControl(ctlLn)
	defer ctlLn.Close()

	ctlClient, err := ctl.Dial("tcp", ctlLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctlClient.LoadPlugin("drr"); err != nil {
		t.Fatal(err)
	}
	inst, err := ctlClient.CreateInstance("drr", map[string]string{"iface": "1"})
	if err != nil {
		t.Fatal(err)
	}

	// SSP daemon with a controllable clock.
	now := time.Unix(1000, 0)
	daemonCtl, err := ctl.Dial("tcp", ctlLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	d := sspd.New(daemonCtl)
	d.SetClock(func() time.Time { return now })
	sspLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(sspLn)
	defer sspLn.Close()

	sc, err := sspd.DialClient("tcp", sspLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	filter := "10.0.0.5, 20.0.0.1, UDP, 777, 9, *"
	if err := sc.Send(&sspd.Message{
		Type: "reserve", Filter: filter, Plugin: "drr", Instance: inst,
		Args: map[string]string{"weight": "4"}, LifetimeSec: 10,
	}); err != nil {
		t.Fatal(err)
	}
	if d.Reservations() != 1 {
		t.Fatalf("reservations = %d", d.Reservations())
	}
	// The binding is installed: the reserved flow dispatches to DRR.
	send(t, "10.0.0.5", "20.0.0.1", 777)

	// Refresh keeps it alive past the original lifetime.
	now = now.Add(8 * time.Second)
	if err := sc.Send(&sspd.Message{Type: "refresh", Filter: filter, Plugin: "drr", Instance: inst, LifetimeSec: 10}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(8 * time.Second)
	if n := d.Expire(); n != 0 {
		t.Errorf("refreshed reservation expired (%d)", n)
	}
	// Without further refresh it lapses and the filter is removed.
	now = now.Add(5 * time.Second)
	if n := d.Expire(); n != 1 {
		t.Errorf("expired %d, want 1", n)
	}
	data, err := ctlClient.Do(&ctl.Request{Op: ctl.OpFilters, Gate: "sched"})
	if err != nil {
		t.Fatal(err)
	}
	var filters []string
	json.Unmarshal(data, &filters)
	if len(filters) != 0 {
		t.Errorf("filters after expiry: %v", filters)
	}
	// Release of a gone reservation errors.
	if err := sc.Send(&sspd.Message{Type: "release", Filter: filter, Plugin: "drr", Instance: inst}); err == nil {
		t.Error("release of expired reservation should fail")
	}
}

func TestStartStop(t *testing.T) {
	r, _ := newTestRouter(t)
	r.Start()
	r.Start() // idempotent
	lan := r.Interface(0)
	data, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
		SrcPort: 1, DstPort: 2, Payload: []byte("x"),
	})
	sink := r.Interface(1)
	_ = sink
	if err := lan.Inject(data); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.Core.Stats().Forwarded == 0 {
		if time.Now().After(deadline) {
			r.Stop()
			t.Fatal("run loop did not forward")
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
}

func TestRunConfigScript(t *testing.T) {
	r, send := newTestRouter(t)
	script := `
# boot configuration (the paper's initialization script)
load drr
create drr iface=1 quantum=1500
register drr drr0 'filter=<10.*.*.*, *, UDP, *, *, *>' weight=4
register drr drr0 'filter=<*, *, *, *, *, *>'
route add 172.16.0.0/12 dev 1 metric 2
`
	if err := r.RunConfigScript(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	if !send(t, "10.0.0.1", "20.0.0.1", 7) {
		t.Fatal("forward after config failed")
	}
	ft, _ := r.AIU.Table(GateSched)
	if len(ft.Records()) != 2 {
		t.Errorf("filters installed = %d", len(ft.Records()))
	}
	if r.Routes.Len() != 2 {
		t.Errorf("routes = %d", r.Routes.Len())
	}
	// Failing lines abort with position info.
	err := r.RunConfigScript(strings.NewReader("load nonesuch"))
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("bad script error = %v", err)
	}
}

func TestRouteDaemonViaFacade(t *testing.T) {
	// Two routers connected by a link; each originates a stub; the
	// daemons converge and traffic flows end to end.
	mk := func(stub, linkAddr string) (*Router, interface {
		Originate(string, int32) error
		Tick()
		Learned() map[string]int
	}) {
		r, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddInterface(0, "stub", stub); err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddInterface(1, "link", linkAddr); err != nil {
			t.Fatal(err)
		}
		return r, r.EnableRouteDaemon()
	}
	a, da := mk("10.1.0.1", "192.168.9.1")
	b, db := mk("10.2.0.1", "192.168.9.2")
	Connect(a.Interface(1), b.Interface(1))
	if err := da.Originate("10.1.0.0/16", 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Originate("10.2.0.0/16", 0); err != nil {
		t.Fatal(err)
	}
	pump := func() {
		for i := 0; i < 10; i++ {
			if a.Core.Step()+b.Core.Step() == 0 {
				break
			}
		}
	}
	for round := 0; round < 2; round++ {
		da.Tick()
		db.Tick()
		pump()
	}
	if got := da.Learned()["10.2.0.0/16"]; got != 2 {
		t.Fatalf("A learned %v", da.Learned())
	}
	// Traffic crosses.
	data, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.1.3.3"), Dst: pkt.MustParseAddr("10.2.4.4"),
		SrcPort: 1, DstPort: 2, Payload: []byte("via routed"),
	})
	before := b.Interface(0).Stats().TxPackets
	if err := a.Interface(0).Inject(data); err != nil {
		t.Fatal(err)
	}
	pump()
	if got := b.Interface(0).Stats().TxPackets - before; got != 1 {
		t.Errorf("B's stub transmitted %d data packets", got)
	}
}
