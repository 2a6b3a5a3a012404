package eisr

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/ctl"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// newChaosRouter assembles a two-port router with a chaos instance
// bound at the options gate, returning the instance name and a sender
// that injects one UDP packet of the given flow.
func newChaosRouter(t *testing.T, opts Options, chaosArgs map[string]string) (*Router, string, func(t *testing.T, sport uint16) bool) {
	t.Helper()
	r, err := New(opts)
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
	if err := r.LoadPlugin("chaos-options"); err != nil {
		t.Fatal(err)
	}
	name, err := r.CreateInstance("chaos-options", chaosArgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("chaos-options", name, map[string]string{"filter": "*, *, *, *, *, *"}); err != nil {
		t.Fatal(err)
	}
	send := func(t *testing.T, sport uint16) bool {
		t.Helper()
		data, err := pkt.BuildUDP(pkt.UDPSpec{
			Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
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
	return r, name, send
}

// chaosStats fetches the instance's call/fault counters through the
// plugin's control verb.
func chaosStats(t *testing.T, r *Router, name string) map[string]uint64 {
	t.Helper()
	reply, err := r.Message("chaos-options", name, "stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := reply.(map[string]uint64)
	if !ok {
		t.Fatalf("stats reply %T", reply)
	}
	return m
}

// A plugin that panics on every packet must not crash the router: with
// the drop policy the packet dies, the fault is recorded, and the
// router keeps serving.
func TestChaosPanicDropPolicy(t *testing.T) {
	r, name, send := newChaosRouter(t, Options{FaultThreshold: -1}, nil)
	for i := 0; i < 3; i++ {
		if send(t, uint16(1000+i)) {
			t.Fatalf("packet %d forwarded past a panicking gate under the drop policy", i)
		}
	}
	s := r.Core.Stats()
	if s.PluginFaults != 3 || s.Forwarded != 0 || s.Dropped != 3 || s.Degraded != 0 {
		t.Fatalf("stats = %+v", s)
	}
	rep := r.HealthReport()
	if len(rep) != 1 || rep[0].Instance != name || rep[0].Faults != 3 || rep[0].Quarantined {
		t.Fatalf("health = %+v", rep)
	}
	if rep[0].LastOrigin != "gate" || rep[0].LastPanic == "" {
		t.Fatalf("fault detail missing: %+v", rep[0])
	}
	if st := chaosStats(t, r, name); st["faults"] != 3 {
		t.Fatalf("chaos stats = %v", st)
	}
}

// Under the forward policy a faulted gate degrades the packet to the
// default path instead of dropping it.
func TestChaosPanicForwardPolicy(t *testing.T) {
	r, _, send := newChaosRouter(t, Options{FaultPolicy: "forward", FaultThreshold: -1}, nil)
	for i := 0; i < 3; i++ {
		if !send(t, uint16(1000+i)) {
			t.Fatalf("packet %d not forwarded under the forward policy", i)
		}
	}
	s := r.Core.Stats()
	if s.PluginFaults != 3 || s.Forwarded != 3 || s.Degraded != 3 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// Crossing the fault threshold quarantines the instance: its filters
// are unbound, its cached flows flushed, and traffic re-classifies to
// the default path — the router degrades instead of dying.
func TestQuarantineAfterThreshold(t *testing.T) {
	r, name, send := newChaosRouter(t, Options{FaultThreshold: 3}, nil)
	// Three faults on one flow — the flow cache binds the instance, so
	// the flush must be observable on this very flow afterwards.
	for i := 0; i < 3; i++ {
		if send(t, 1000) {
			t.Fatalf("packet %d forwarded before quarantine", i)
		}
	}
	rep := r.HealthReport()
	if len(rep) != 1 || !rep[0].Quarantined || rep[0].Faults != 3 {
		t.Fatalf("health after threshold = %+v", rep)
	}
	if !rep[0].Drained {
		t.Fatalf("no worker online: quarantine should drain inline, got %+v", rep[0])
	}
	// The quarantined instance's flows were flushed: the same flow now
	// re-classifies to the default path and forwards.
	for i := 0; i < 3; i++ {
		if !send(t, 1000) {
			t.Fatalf("packet %d not forwarded after quarantine", i)
		}
	}
	s := r.Core.Stats()
	if s.PluginFaults != 3 || s.Forwarded != 3 || s.Dropped != 3 {
		t.Fatalf("stats = %+v", s)
	}
	// The instance took no more calls after quarantine.
	if st := chaosStats(t, r, name); st["calls"] != 3 {
		t.Fatalf("quarantined instance still dispatched: %v", st)
	}
	// Re-quarantining by hand reports the instance as already gone.
	if err := r.Quarantine("chaos-options", name); !errors.Is(err, pcu.ErrQuarantined) {
		t.Fatalf("double quarantine error = %v", err)
	}
}

// Operator-requested quarantine takes a healthy instance out of the
// data path without freeing it.
func TestManualQuarantine(t *testing.T) {
	r, name, send := newChaosRouter(t, Options{}, map[string]string{"mode": "none"})
	if !send(t, 1000) {
		t.Fatal("healthy chaos instance blocked traffic")
	}
	if st := chaosStats(t, r, name); st["calls"] != 1 {
		t.Fatalf("chaos stats = %v", st)
	}
	if err := r.Quarantine("chaos-options", name); err != nil {
		t.Fatal(err)
	}
	if !send(t, 1000) || !send(t, 2000) {
		t.Fatal("traffic stopped after manual quarantine")
	}
	if st := chaosStats(t, r, name); st["calls"] != 1 {
		t.Fatalf("quarantined instance still dispatched: %v", st)
	}
	rep := r.HealthReport()
	if len(rep) != 1 || !rep[0].Quarantined || !rep[0].Manual {
		t.Fatalf("health = %+v", rep)
	}
	// The instance can still be freed afterwards, clearing the ledger.
	if err := r.FreeInstance("chaos-options", name); err != nil {
		t.Fatal(err)
	}
	if rep := r.HealthReport(); len(rep) != 0 {
		t.Fatalf("ledger survives free-instance: %+v", rep)
	}
}

// A panic in a plugin's control callback fails the control request with
// the structured fault instead of crashing the router.
func TestControlPathPanicContained(t *testing.T) {
	r, name, send := newChaosRouter(t, Options{FaultThreshold: -1}, map[string]string{"mode": "none"})
	_, err := r.Message("chaos-options", name, "panic", nil)
	var flt *pcu.PluginFault
	if !errors.As(err, &flt) {
		t.Fatalf("control panic not converted: %v", err)
	}
	if flt.Origin != pcu.OriginControl || flt.Plugin != "chaos-options" {
		t.Fatalf("fault = %+v", flt)
	}
	// The router is still alive and forwarding.
	if !send(t, 1000) {
		t.Fatal("router dead after control-path panic")
	}
	rep := r.HealthReport()
	if len(rep) != 1 || rep[0].LastOrigin != "control" {
		t.Fatalf("health = %+v", rep)
	}
}

// Four goroutines hammer a panic-on-every-packet instance concurrently
// (run under -race by make race): every panic is contained, the
// instance is quarantined, and traffic keeps flowing afterwards.
func TestQuarantineConcurrentWorkers(t *testing.T) {
	r, name, _ := newChaosRouter(t, Options{Workers: 4, FlowShards: 8}, nil)
	const workers = 4
	const perWorker = 64
	var forwarded atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				data, err := pkt.BuildUDP(pkt.UDPSpec{
					Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
					SrcPort: uint16(1000 + w*perWorker + i), DstPort: 9, Payload: []byte("t"),
				})
				if err != nil {
					return
				}
				p, err := pkt.NewPacket(data, 0)
				if err != nil {
					return
				}
				p.Stamp = pkt.Nanotime()
				if r.Core.Forward(p) {
					forwarded.Add(1)
				}
				r.Core.TxDrain(1, 16)
			}
		}(w)
	}
	wg.Wait()
	rep := r.HealthReport()
	if len(rep) != 1 || rep[0].Instance != name || !rep[0].Quarantined {
		t.Fatalf("health = %+v", rep)
	}
	if rep[0].Faults < uint64(pcu.DefaultFaultThreshold) {
		t.Fatalf("quarantined below threshold: %+v", rep[0])
	}
	// Once quarantined the remaining packets take the default path.
	if forwarded.Load() == 0 {
		t.Fatal("no packet forwarded after quarantine")
	}
	s := r.Core.Stats()
	if s.PluginFaults < uint64(pcu.DefaultFaultThreshold) || s.Forwarded == 0 {
		t.Fatalf("stats = %+v (forwarded %d)", s, forwarded.Load())
	}
}

// TestChaosSoak is the chaos-soak CI job: a panic-on-every-packet
// plugin under sustained concurrent load with the control socket live —
// the router must stay up, quarantine the instance, keep forwarding,
// and keep answering control requests throughout. Gated on
// EISR_CHAOS_SOAK=1 (it burns ~2s of wall time).
func TestChaosSoak(t *testing.T) {
	if os.Getenv("EISR_CHAOS_SOAK") == "" {
		t.Skip("set EISR_CHAOS_SOAK=1 to run the chaos soak")
	}
	r, name, _ := newChaosRouter(t, Options{Workers: 4, FlowShards: 8, Telemetry: true}, nil)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go r.ServeControl(ln)

	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	var forwarded, sent atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				data, err := pkt.BuildUDP(pkt.UDPSpec{
					Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
					SrcPort: uint16(1 + (w*16384+i)%60000), DstPort: 9, Payload: []byte("t"),
				})
				if err != nil {
					return
				}
				p, err := pkt.NewPacket(data, 0)
				if err != nil {
					return
				}
				p.Stamp = pkt.Nanotime()
				sent.Add(1)
				if r.Core.Forward(p) {
					forwarded.Add(1)
				}
				r.Core.TxDrain(1, 64)
			}
		}(w)
	}

	// Control-plane liveness probe throughout the soak.
	probes := 0
	c, err := ctl.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for time.Now().Before(deadline) {
		data, err := c.Do(&ctl.Request{Op: ctl.OpHealth})
		if err != nil {
			t.Fatalf("control socket died during soak (probe %d): %v", probes, err)
		}
		var rep []pcu.InstanceHealth
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("health payload: %v", err)
		}
		probes++
		time.Sleep(50 * time.Millisecond)
	}
	wg.Wait()

	rep := r.HealthReport()
	if len(rep) != 1 || rep[0].Instance != name || !rep[0].Quarantined {
		t.Fatalf("health after soak = %+v", rep)
	}
	s := r.Core.Stats()
	if s.PluginFaults == 0 || forwarded.Load() == 0 {
		t.Fatalf("soak stats = %+v (sent %d forwarded %d)", s, sent.Load(), forwarded.Load())
	}
	if probes < 10 {
		t.Fatalf("control plane answered only %d probes", probes)
	}
	t.Logf("soak: %d sent, %d forwarded, %d faults contained, %d control probes",
		sent.Load(), forwarded.Load(), s.PluginFaults, probes)
}

// The health and quarantine verbs round-trip the control socket (the
// pmgr path).
func TestHealthOverControlSocket(t *testing.T) {
	r, name, send := newChaosRouter(t, Options{FaultThreshold: -1}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go r.ServeControl(ln)

	send(t, 1000)
	c, err := ctl.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	req, err := ctl.ParseCommand([]string{"health"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rep []pcu.InstanceHealth
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep) != 1 || rep[0].Instance != name || rep[0].Faults != 1 {
		t.Fatalf("health over ctl = %+v", rep)
	}

	req, err = ctl.ParseCommand([]string{"quarantine", "chaos-options", name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(req); err != nil {
		t.Fatal(err)
	}
	if !send(t, 1000) {
		t.Fatal("traffic blocked after quarantine over ctl")
	}
	// Quarantining again errors over the wire.
	if _, err := c.Do(req); err == nil {
		t.Fatal("double quarantine accepted over ctl")
	}
}
