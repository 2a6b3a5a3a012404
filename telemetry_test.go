package eisr

import (
	"encoding/json"
	"net"
	"strings"
	"testing"

	"github.com/routerplugins/eisr/internal/ctl"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// newTelemetryRouter assembles a two-port plugin-mode router with
// telemetry and tracing on, a DRR instance on the output port, and a
// catch-all filter binding.
func newTelemetryRouter(t *testing.T) (*Router, func(src, dst string, sport uint16) bool) {
	t.Helper()
	r, err := New(Options{VerifyChecksums: true, Telemetry: true, TraceBuffer: 64})
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
	if err := r.LoadPlugin("drr"); err != nil {
		t.Fatal(err)
	}
	name, err := r.CreateInstance("drr", map[string]string{"iface": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("drr", name, map[string]string{"filter": "*, *, *, *, *, *"}); err != nil {
		t.Fatal(err)
	}
	send := func(src, dst string, sport uint16) bool {
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

func TestTelemetryStatsReport(t *testing.T) {
	r, send := newTelemetryRouter(t)
	if r.Telemetry == nil {
		t.Fatal("Options.Telemetry did not attach a registry")
	}
	for i := 0; i < 8; i++ {
		if !send("10.0.0.1", "20.0.0.1", 1000) { // one flow: 1 miss, 7 hits
			t.Fatal("forward failed")
		}
	}
	rep := r.StatsReport()
	if rep.Core.Forwarded != 8 {
		t.Errorf("core forwarded = %d", rep.Core.Forwarded)
	}
	var sched *GateStat
	for i := range rep.Gates {
		if rep.Gates[i].Gate == "sched" {
			sched = &rep.Gates[i]
		}
	}
	if sched == nil || sched.Dispatch != 8 {
		t.Errorf("sched gate dispatch = %+v", rep.Gates)
	}
	if rep.FlowCache == nil {
		t.Fatal("no flow-cache section")
	}
	if rep.FlowCache.Hits != 7 || rep.FlowCache.Misses != 1 {
		t.Errorf("flow cache = %+v", rep.FlowCache)
	}
	if rep.FlowCache.HitRatio < 0.8 || rep.FlowCache.HitRatio > 1 {
		t.Errorf("hit ratio = %v", rep.FlowCache.HitRatio)
	}
	found := false
	for _, p := range rep.Plugins {
		if p.Plugin == "drr" && p.Instances == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("plugin instance counts = %+v", rep.Plugins)
	}
}

func TestTelemetryTraceOverControlSocket(t *testing.T) {
	r, send := newTelemetryRouter(t)
	for i := 0; i < 5; i++ {
		send("10.0.0.2", "20.0.0.2", uint16(2000+i)) // 5 distinct flows
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	//eisr:allow(errcheckctl) Serve returns only when the listener closes at test teardown
	go r.ServeControl(ln)
	defer ln.Close()
	c, err := ctl.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data, err := c.Do(&ctl.Request{Op: ctl.OpTrace, Args: map[string]string{"max": "3"}})
	if err != nil {
		t.Fatal(err)
	}
	var samples []telemetry.TraceSample
	if err := json.Unmarshal(data, &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("trace returned %d samples, want 3", len(samples))
	}
	s := samples[0]
	if s.Verdict != "forwarded" || s.OutIf != 1 || len(s.Hops) == 0 {
		t.Errorf("sample = %+v", s)
	}
	if s.Hops[len(s.Hops)-1].Gate != "sched" {
		t.Errorf("last hop = %+v", s.Hops)
	}
	// A bad count is a structured error, not a dead connection.
	if _, err := c.Do(&ctl.Request{Op: ctl.OpTrace, Args: map[string]string{"max": "zero"}}); err == nil {
		t.Error("bad trace count accepted")
	}
	if _, err := c.Do(&ctl.Request{Op: ctl.OpStats}); err != nil {
		t.Errorf("connection unusable after trace error: %v", err)
	}
}

func TestTelemetryDisabledTraceErrors(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry != nil {
		t.Error("telemetry attached without Options.Telemetry")
	}
	if _, err := r.Control(&ctl.Request{Op: ctl.OpTrace}); err == nil {
		t.Error("trace without telemetry should fail")
	}
	rep := r.StatsReport()
	if rep.Gates != nil || rep.FlowCache != nil || rep.Plugins != nil {
		t.Errorf("telemetry-off report has telemetry sections: %+v", rep)
	}
}

func TestTelemetryPrometheusExposition(t *testing.T) {
	r, send := newTelemetryRouter(t)
	send("10.0.0.3", "20.0.0.3", 3000)
	var sb strings.Builder
	if err := r.Telemetry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`eisr_gate_dispatch_total{gate="sched"} 1`,
		`eisr_flowcache_total{result="miss"} 1`,
		`eisr_plugin_instances{plugin="drr"} 1`,
		"# TYPE eisr_verdicts_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
