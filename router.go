// Package eisr is the public API of the Extended Integrated Services
// Router: a Go reproduction of "Router Plugins: A Software Architecture
// for Next Generation Routers" (Decasper, Dittia, Parulkar, Plattner —
// SIGCOMM 1998).
//
// A Router bundles the stable IP core, the Plugin Control Unit (PCU),
// the Association Identification Unit (AIU — the flow-caching packet
// classifier), a forwarding table on a pluggable longest-prefix-match
// engine, and simulated network interfaces. Plugins are loaded by name
// (the analog of NetBSD's modload), configured into instances, and
// bound to flows through six-tuple filters:
//
//	r, _ := eisr.New(eisr.Options{})
//	r.AddInterface(0, "10.0.0.0/8 side", "192.0.2.1")
//	r.AddInterface(1, "backbone", "")
//	r.AddRoute("0.0.0.0/0 dev 1")
//	r.LoadPlugin("drr")
//	inst, _ := r.CreateInstance("drr", map[string]string{"iface": "1"})
//	r.Register("drr", inst, map[string]string{"filter": "<129.*.*.*, *, TCP, *, *, *>", "weight": "4"})
//
// Packets injected into an interface (or delivered by a connected peer
// router) then traverse the gates of the data path, and each flow is
// dispatched to the plugin instances its filters selected.
package eisr

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/netio"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/plugins"
	"github.com/routerplugins/eisr/internal/ripd"
	"github.com/routerplugins/eisr/internal/routefeed"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/rsvpd"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Options configures a Router.
type Options struct {
	// BestEffort builds the monolithic best-effort kernel: no gates, no
	// AIU, no plugins. The default is plugin mode.
	BestEffort bool
	// Gates overrides the gate set (plugin mode). Defaults to the
	// paper's four gates.
	Gates []pcu.Type
	// BMP selects the longest-prefix-match engine for classifier and
	// routing ("linear", "patricia", "bspl", "cpe"). Empty gives the
	// FIB cpe and the classifier bspl: classifier tables are many and
	// tiny, and a CPE directory each would waste memory.
	BMP string
	// MaxFlows caps the AIU flow cache; its index grows with the
	// records, so nothing is sized for the cap at boot.
	MaxFlows int
	// FlowShards sets the flow-table shard count (power of two; 0 = the
	// default). More shards reduce lock contention between forwarding
	// workers; with Workers a power of two ≤ FlowShards, each shard is
	// touched by exactly one worker.
	FlowShards int
	// Workers sizes the parallel forwarding engine: every interface gets
	// one RX ring per worker, each received packet is steered to a ring
	// by flow hash, preserving per-flow ordering, and Start runs one
	// worker goroutine per ring. 0 or 1 keeps the paper's single flow
	// of control.
	Workers int
	// BatchSize caps each worker's forwarding vector: a worker polls up
	// to BatchSize packets from its ring on each interface and pushes
	// them through the batched gate walk in one pass (0 = the engine
	// default; 1 degenerates to per-packet forwarding).
	BatchSize int
	// ShareIdenticalTables enables the §5.1.2 inter-DAG optimization:
	// gates with identical filter tables share classification results.
	ShareIdenticalTables bool
	// VerifyChecksums validates IPv4 header checksums on input.
	VerifyChecksums bool
	// SendICMPErrors makes the core answer TTL expiry and routing
	// failures with ICMP errors, as a real router does.
	SendICMPErrors bool
	// Clock overrides the time source (simulations).
	Clock func() time.Time
	// Telemetry attaches the allocation-free metrics registry: per-gate
	// dispatch counters, flow-cache accounting, plugin instance gauges,
	// and the packet trace ring. Off by default — with it off the data
	// path records nothing (nil cells, no-op calls).
	Telemetry bool
	// TraceBuffer sizes the packet trace ring (entries, rounded up to a
	// power of two). 0 = the default size. Only meaningful with
	// Telemetry.
	TraceBuffer int
	// TraceSample records every Nth packet in the trace ring (0 or 1 =
	// every packet). Only meaningful with Telemetry.
	TraceSample int
	// RouterID identifies this router in in-band path-trace hop records
	// (eisrpath). Only meaningful with Telemetry.
	RouterID uint32
	// PathSample enables in-band path tracing at the origin: 1-in-N
	// packets (deterministic by flow-key hash) carry a trace context
	// across the wire. 0 = origin sampling off (the router still stamps
	// and folds contexts that arrive from peers). Runtime-mutable via
	// "pmgr pathtrace N". Only meaningful with Telemetry.
	PathSample int
	// FaultPolicy selects what happens to a packet whose plugin dispatch
	// panicked: "drop" (default) discards it, "forward" continues past
	// the faulted gate on the default path.
	FaultPolicy string
	// FaultThreshold quarantines an instance after this many contained
	// faults inside FaultWindow (0 = the default of 5; negative
	// disables quarantining, faults are still tracked and reported).
	FaultThreshold int
	// FaultWindow is the sliding window FaultThreshold counts within
	// (0 = 10s).
	FaultWindow time.Duration
}

// Router is the assembled EISR.
type Router struct {
	Core   *ipcore.Router
	AIU    *aiu.AIU
	PCU    *pcu.Registry
	Routes *routing.Table
	Env    *plugins.Env
	// Telemetry is the metrics registry (nil when Options.Telemetry was
	// not set). Snapshot/WritePrometheus/Tracer hang off it.
	Telemetry *telemetry.Telemetry

	mu            sync.Mutex
	done          chan struct{}
	exited        chan struct{} // closed once the Run that done stops returned
	running       bool
	serving       atomic.Bool
	localHandlers map[uint16]func(*pkt.Packet)
	feed          *routefeed.Daemon

	// guard/health are the plugin fault-isolation layer: every plugin
	// invocation runs through guard's panic barrier, and health
	// quarantines instances that fault repeatedly.
	guard  *pcu.Guard
	health *pcu.Health
}

// New assembles a router.
func New(opts Options) (*Router, error) {
	mode := ipcore.ModePlugin
	if opts.BestEffort {
		mode = ipcore.ModeBestEffort
	}
	kind := bmp.Kind(opts.BMP)
	routes, err := routing.New(kind)
	if err != nil {
		return nil, err
	}
	gates := opts.Gates
	if gates == nil {
		gates = ipcore.DefaultGates
	}
	var a *aiu.AIU
	if mode == ipcore.ModePlugin {
		a = aiu.New(aiu.Config{
			BMPKind:              kind,
			MaxFlows:             opts.MaxFlows,
			FlowShards:           opts.FlowShards,
			ShareIdenticalTables: opts.ShareIdenticalTables,
		}, gates...)
	}
	var tel *telemetry.Telemetry
	if opts.Telemetry {
		tel = telemetry.New()
		size := opts.TraceBuffer
		if size <= 0 {
			size = telemetry.DefaultTraceSize
		}
		tel.EnableTrace(size, opts.TraceSample)
		// The event journal and path tracer must exist before ipcore and
		// the links capture their pointers at assembly below.
		tel.EnableJournal(0)
		tel.EnablePathTrace(opts.RouterID, 0, opts.PathSample)
		if a != nil {
			a.SetTelemetry(tel)
		}
		routes.SetTelemetry(tel)
	}
	// The fault-isolation layer: policy decides the faulted packet's
	// fate, health quarantines instances that keep faulting. The hook
	// closes over r (assigned below) the same way LocalSink does.
	policy, err := pcu.ParsePolicy(opts.FaultPolicy)
	if err != nil {
		return nil, err
	}
	var r *Router
	health := pcu.NewHealth(pcu.HealthConfig{
		Threshold: opts.FaultThreshold,
		Window:    opts.FaultWindow,
		Clock:     opts.Clock,
		OnQuarantine: func(inst pcu.Instance, f *pcu.PluginFault) {
			r.quarantineInstance(inst)
		},
	})
	if tel != nil {
		health.SetTelemetry(tel)
	}
	guard := pcu.NewGuard(policy, health)
	core, err := ipcore.New(ipcore.Config{
		Mode: mode, Gates: gates, AIU: a, Routes: routes,
		VerifyChecksums: opts.VerifyChecksums,
		SendICMPErrors:  opts.SendICMPErrors,
		Clock:           opts.Clock,
		Workers:         opts.Workers,
		BatchSize:       opts.BatchSize,
		Tel:             tel,
		Guard:           guard,
		LocalSink:       func(p *pkt.Packet) { r.dispatchLocal(p) },
	})
	if err != nil {
		return nil, err
	}
	reg := pcu.NewRegistry()
	if tel != nil {
		reg.SetTelemetry(tel)
	}
	// Free-instance destruction must wait out in-flight dispatches: the
	// PCU defers the destructive callbacks through the epoch reclaimer
	// the core's workers announce quiescence to.
	reg.SetReclaimer(core.Reclaimer())
	reg.SetGuard(guard)
	if a != nil {
		a.SetGuard(guard)
	}
	r = &Router{
		Core: core, AIU: a, PCU: reg, Routes: routes,
		Env:       &plugins.Env{Router: core, AIU: a, Clock: opts.Clock, Tel: tel},
		Telemetry: tel,
		guard:     guard,
		health:    health,
	}
	return r, nil
}

// AddLocalHandler registers a handler for locally delivered UDP traffic
// on a port — the hook daemons (e.g. the route daemon) use to receive
// their protocol packets. The handler runs synchronously inside the
// core's local delivery and must not keep the packet or its Data after
// it returns (the packet is recycled); the in-tree daemons parse the
// payload in place.
func (r *Router) AddLocalHandler(port uint16, h func(p *pkt.Packet)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.localHandlers == nil {
		r.localHandlers = make(map[uint16]func(*pkt.Packet))
	}
	r.localHandlers[port] = h
}

// dispatchLocal routes locally delivered packets to registered handlers.
func (r *Router) dispatchLocal(p *pkt.Packet) {
	if r == nil || p.Key.Proto != pkt.ProtoUDP {
		return
	}
	r.mu.Lock()
	h := r.localHandlers[p.Key.DstPort]
	r.mu.Unlock()
	if h != nil {
		h(p)
	}
}

// AddInterface creates and attaches a simulated interface with an
// optional own address; it returns the interface for wiring.
func (r *Router) AddInterface(index int32, name, addr string) (*netdev.Interface, error) {
	cfg := netdev.Config{Name: name}
	if addr != "" {
		a, err := pkt.ParseAddr(addr)
		if err != nil {
			return nil, err
		}
		cfg.Addr = a
	}
	ifc := netdev.NewInterface(index, cfg)
	r.Core.AddInterface(ifc)
	return ifc, nil
}

// Interface returns an attached interface by index.
func (r *Router) Interface(index int32) *netdev.Interface {
	return r.Core.Interface(index)
}

// AttachUDPLink backs an attached interface with a netio UDP overlay
// link: the interface binds local and carries its traffic to peer as
// UDP-encapsulated IP datagrams. peer may be empty and set later with
// SetPeer on the returned link. The link's lifecycle follows the
// router: if the router is already running the link starts
// immediately, otherwise Start launches it with the forwarding loop,
// and Stop closes its socket and joins its goroutines.
func (r *Router) AttachUDPLink(index int32, local, peer string) (*netio.UDPLink, error) {
	ifc := r.Core.Interface(index)
	if ifc == nil {
		return nil, fmt.Errorf("eisr: no interface %d", index)
	}
	link, err := netio.NewUDPLink(ifc, netio.Config{
		Local: local, Peer: peer, Tel: r.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	ifc.AttachDriver(link)
	r.mu.Lock()
	running := r.running
	r.mu.Unlock()
	if running {
		link.Start()
	}
	return link, nil
}

// LinksReport snapshots every wire-backed interface (the "pmgr links"
// payload).
func (r *Router) LinksReport() []netdev.LinkInfo {
	var out []netdev.LinkInfo
	for _, ifc := range r.Core.Interfaces() {
		if rep, ok := ifc.Driver().(netdev.LinkReporter); ok {
			out = append(out, rep.LinkInfo())
		}
	}
	return out
}

// AddRoute installs a static route: "PREFIX dev N [via GW] [metric M]".
func (r *Router) AddRoute(spec string) error {
	rt, err := routing.ParseRoute(spec)
	if err != nil {
		return err
	}
	r.Routes.Add(rt.Prefix, rt.NextHop)
	return nil
}

// AddRoutes installs several static routes as one batch with a single
// forwarding-snapshot publication — the startup-load path for eisrd's
// -route flags and for bulk configuration scripts. All specs are parsed
// before anything is installed, so a syntax error leaves the table
// untouched.
func (r *Router) AddRoutes(specs []string) error {
	rts := make([]routing.Route, 0, len(specs))
	for _, spec := range specs {
		rt, err := routing.ParseRoute(spec)
		if err != nil {
			return err
		}
		rts = append(rts, rt)
	}
	r.Routes.ApplyBatch(rts, nil)
	return nil
}

// DelRoute removes the route for a prefix.
func (r *Router) DelRoute(prefix string) error {
	p, err := pkt.ParsePrefix(prefix)
	if err != nil {
		return err
	}
	if !r.Routes.Del(p) {
		return fmt.Errorf("eisr: no route for %s", p)
	}
	return nil
}

// CreateInstance creates a plugin instance and returns its name.
func (r *Router) CreateInstance(plugin string, args map[string]string) (string, error) {
	msg := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: args}
	if err := r.PCU.Send(plugin, msg); err != nil {
		return "", err
	}
	inst, ok := msg.Reply.(pcu.Instance)
	if !ok {
		return "", fmt.Errorf("eisr: plugin %q returned no instance", plugin)
	}
	return inst.InstanceName(), nil
}

// FreeInstance frees a named instance. The instance is first made
// unreachable from the data path — its filters unbound and its cached
// flows flushed — and only then is the plugin's destructive callback
// issued; the PCU additionally defers that callback until every worker
// in flight at this moment has passed a quiescent point. A worker that fetched the instance through a FIX an instant
// before the flush therefore always completes its dispatch against a
// live instance.
func (r *Router) FreeInstance(plugin, instance string) error {
	inst, err := r.PCU.FindInstance(plugin, instance)
	if err != nil {
		return err
	}
	if r.AIU != nil {
		r.AIU.UnbindInstance(inst)
	}
	return r.PCU.Send(plugin, &pcu.Message{Kind: pcu.MsgFreeInstance, Instance: inst})
}

// quarantineInstance is the health tracker's quarantine hook: make the
// instance unreachable from the data path — unbind its filters and
// flush its cached flow bindings — so its traffic re-classifies to the
// default path, then mark it drained once every dispatch in flight at
// this moment has passed a quiescent point. The instance itself is NOT
// freed: its state stays inspectable ("pmgr health") and the operator
// decides whether to free it.
func (r *Router) quarantineInstance(inst pcu.Instance) {
	if r.AIU != nil {
		r.AIU.UnbindInstance(inst)
	}
	// A worker may have fetched the instance through a FIX an instant
	// before the flush; reuse the epoch reclaimer (the same mechanism
	// free-instance uses) to observe when every such dispatch has
	// quiesced.
	_ = r.PCU.Reclaimer().Defer(func() error {
		r.health.MarkDrained(inst)
		return nil
	})
}

// HealthReport snapshots per-instance fault and quarantine state (the
// "pmgr health" payload).
func (r *Router) HealthReport() []pcu.InstanceHealth {
	return r.health.Report()
}

// Quarantine forces an instance into quarantine by operator request:
// its filters are unbound and its flows flushed exactly as if it had
// crossed the fault threshold.
func (r *Router) Quarantine(plugin, instance string) error {
	inst, err := r.PCU.FindInstance(plugin, instance)
	if err != nil {
		return err
	}
	if !r.health.Quarantine(inst, plugin, instance) {
		return fmt.Errorf("eisr: %w: %s/%s", pcu.ErrQuarantined, plugin, instance)
	}
	return nil
}

// Register binds a filter to an instance; args must include "filter"
// plus any plugin-specific binding parameters (weight, class, SA...).
func (r *Router) Register(plugin, instance string, args map[string]string) error {
	inst, err := r.PCU.FindInstance(plugin, instance)
	if err != nil {
		return err
	}
	return r.PCU.Send(plugin, &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: inst, Args: args})
}

// Deregister removes a filter binding.
func (r *Router) Deregister(plugin, instance, filter string) error {
	inst, err := r.PCU.FindInstance(plugin, instance)
	if err != nil {
		return err
	}
	return r.PCU.Send(plugin, &pcu.Message{
		Kind: pcu.MsgDeregisterInstance, Instance: inst,
		Args: map[string]string{"filter": filter},
	})
}

// Message sends a plugin-specific message and returns the reply.
func (r *Router) Message(plugin, instance, verb string, args map[string]string) (any, error) {
	var inst pcu.Instance
	if instance != "" {
		var err error
		inst, err = r.PCU.FindInstance(plugin, instance)
		if err != nil {
			return nil, err
		}
	}
	msg := &pcu.Message{Kind: pcu.MsgCustom, Verb: verb, Instance: inst, Args: args}
	if err := r.PCU.Send(plugin, msg); err != nil {
		return nil, err
	}
	return msg.Reply, nil
}

// Start launches the forwarding loop.
func (r *Router) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.done, r.exited = make(chan struct{}), make(chan struct{})
	r.running = true
	go func(done <-chan struct{}, exited chan<- struct{}) {
		r.Core.Run(done)
		close(exited)
	}(r.done, r.exited)
	for _, ifc := range r.Core.Interfaces() {
		if d := ifc.Driver(); d != nil {
			d.Start()
		}
	}
	if r.feed != nil {
		r.feed.Start()
	}
	r.Telemetry.Journal().Record(telemetry.EvRouterStart, "forwarding up")
	// Serving flips last: a health probe that sees 200 is guaranteed the
	// forwarding loop and every wire driver are already up.
	r.serving.Store(true)
}

// Stop halts the forwarding loop and waits until the core's Run and
// every worker have exited and the epoch reclaimer has run its final
// pass; then it stops the wire drivers, each closing its socket and
// joining its I/O goroutines.
func (r *Router) Stop() {
	// Serving flips first — health probes report 503 for the whole
	// teardown window — and unconditionally, so a Stop racing Start
	// never leaves a stale 200.
	r.serving.Store(false)
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.Telemetry.Journal().Record(telemetry.EvRouterStop, "forwarding down")
	// The feed stops first: route churn quiesces before the forwarding
	// loop and the wire drivers wind down.
	if r.feed != nil {
		r.feed.Stop()
	}
	close(r.done)
	r.running = false
	exited := r.exited
	// Wait without mu: the workers may be inside a local handler, which
	// takes it.
	r.mu.Unlock()
	<-exited
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return // a Start since has the drivers
	}
	for _, ifc := range r.Core.Interfaces() {
		if d := ifc.Driver(); d != nil {
			d.Stop()
		}
	}
}

// Serving reports whether the router is past Start and not yet into
// Stop — the health-probe truth behind eisrd's /healthz endpoint.
// Lock-free, safe from any goroutine.
func (r *Router) Serving() bool { return r.serving.Load() }

// Connect wires an interface of this router to an interface of another
// (or the same) router as a point-to-point link.
func Connect(a *netdev.Interface, b *netdev.Interface) {
	netdev.Connect(a, b)
}

// EnableRouteDaemon attaches a route daemon (the routed analog of §3.1)
// to this router: it receives distance-vector updates on UDP port 520
// and programs the forwarding table. Call Originate on the returned
// daemon for each connected network, wire the topology, and either call
// Tick from a simulation loop or run Serve in a goroutine.
//
// When a route feed was enabled first (EnableFeed/AttachFeed), the
// daemon programs the table through a feed sink, so RIP churn shows up
// in the per-source feed accounting alongside file and socket feeds.
func (r *Router) EnableRouteDaemon() *ripd.Daemon {
	var tbl ripd.Table = r.Routes
	r.mu.Lock()
	f := r.feed
	r.mu.Unlock()
	if f != nil {
		tbl = f.Sink("rip")
	}
	d := ripd.New(r.Core, tbl)
	r.AddLocalHandler(ripd.Port, d.HandlePacket)
	return d
}

// EnableFeed creates the route-feed daemon with explicit options (batch
// size, flush interval; Telemetry is always the router's own registry).
// Idempotent after first creation: later calls return the existing
// daemon, options unchanged. Add sources with AttachFeed or directly on
// the returned daemon; the feed's lifecycle follows the router (Start
// launches the sources, Stop drains them), and a feed enabled on a
// running router starts immediately.
func (r *Router) EnableFeed(opts routefeed.Options) *routefeed.Daemon {
	r.mu.Lock()
	if r.feed == nil {
		opts.Telemetry = r.Telemetry
		r.feed = routefeed.New(r.Routes, opts)
		if r.running {
			r.feed.Start()
		}
	}
	f := r.feed
	r.mu.Unlock()
	return f
}

// AttachFeed registers a route-feed source by spec — "file:PATH" for a
// oneshot full-table dump load, "tcp:HOST:PORT" for a live
// line-protocol stream — creating the feed daemon with default options
// on first use.
func (r *Router) AttachFeed(spec string) error {
	return r.EnableFeed(routefeed.Options{}).AddSpec(spec)
}

// FeedReport reports per-source feed status (the "pmgr feed" payload).
func (r *Router) FeedReport() ([]routefeed.SourceStatus, error) {
	r.mu.Lock()
	f := r.feed
	r.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("eisr: no route feed attached")
	}
	return f.Status(), nil
}

// EnableRSVP attaches the RSVP daemon (§3.1's in-progress daemon,
// completed here): PATH/RESV messages are punted to it at the options
// gate on every hop, and reservations install filter bindings on the
// named scheduling instances. localDst reports which destinations this
// router terminates (its receivers); pass nil for pure transit routers.
func (r *Router) EnableRSVP(localDst func(a pkt.Addr) bool) (*rsvpd.Daemon, error) {
	if r.AIU == nil {
		return nil, fmt.Errorf("eisr: RSVP requires plugin mode")
	}
	d := rsvpd.New(r.Core, r, localDst)
	if err := rsvpd.BindPunt(r.AIU); err != nil {
		return nil, err
	}
	r.AddLocalHandler(rsvpd.Port, d.HandlePacket)
	return d, nil
}
