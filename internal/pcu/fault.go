// Plugin fault isolation. The paper's plugins run as kernel modules,
// where one buggy plugin crashes the whole router; in this user-space
// reproduction every plugin invocation — gate dispatch, control
// callbacks, classifier match functions — runs inside a panic barrier
// (Guard) that converts a panic into a structured PluginFault and feeds
// a per-instance health tracker (Health). An instance that faults
// repeatedly within a sliding window is *quarantined*: the facade's
// quarantine hook unbinds its filters and flushes its cached flow
// bindings, so its traffic falls back to the default path and the
// router keeps forwarding.
//
// The barrier is built for the fast path: one open-coded defer, no
// recover call and no allocation unless the plugin actually panics.

package pcu

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// FaultOrigin names the plugin entry point a fault escaped from.
type FaultOrigin string

// The three plugin invocation surfaces the barrier covers.
const (
	// OriginGate is a panic out of Instance.HandlePacket at a gate.
	OriginGate FaultOrigin = "gate"
	// OriginControl is a panic out of Plugin.Callback (control path).
	OriginControl FaultOrigin = "control"
	// OriginClassifier is a panic out of a classifier match function
	// during a filter-table lookup (the BMP plugins of §5.1.1).
	OriginClassifier FaultOrigin = "classifier"
)

// PluginFault is one contained plugin panic: who faulted, where, and
// the captured panic value plus stack. It implements error so the
// control path can return it directly.
type PluginFault struct {
	Plugin   string      // plugin name when known (control path)
	Code     Code        // plugin code (exact when the instance exposes it)
	Instance string      // instance name ("" when no instance was involved)
	Gate     Type        // gate being dispatched (gate/classifier origins)
	Origin   FaultOrigin // which barrier caught it
	Panic    any         // the recovered panic value
	Stack    []byte      // goroutine stack at recovery
	When     time.Time
}

// Error implements error.
func (f *PluginFault) Error() string {
	who := f.Instance
	if who == "" {
		who = f.Code.String()
	}
	if f.Plugin != "" {
		who = f.Plugin + "/" + who
	}
	return fmt.Sprintf("pcu: plugin fault at %s (%s): %v", f.Origin, who, f.Panic)
}

// Policy selects what happens to a packet whose gate dispatch faulted.
type Policy int

const (
	// PolicyDrop discards the packet (the conservative default: a
	// half-processed packet is not forwarded).
	PolicyDrop Policy = iota
	// PolicyForward continues the gate walk as if the faulted instance
	// were not bound, degrading the packet to the default path.
	PolicyForward
)

// String renders the policy.
func (p Policy) String() string {
	if p == PolicyForward {
		return "forward"
	}
	return "drop"
}

// ParsePolicy parses a policy name; "" means the default (drop).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "drop":
		return PolicyDrop, nil
	case "forward":
		return PolicyForward, nil
	default:
		return PolicyDrop, fmt.Errorf("pcu: unknown fault policy %q (want drop or forward)", s)
	}
}

// Health defaults.
const (
	DefaultFaultThreshold = 5
	DefaultFaultWindow    = 10 * time.Second
)

// ErrQuarantined marks operations refused because an instance is
// quarantined.
var ErrQuarantined = errors.New("pcu: instance quarantined")

// HealthConfig tunes the per-instance health tracker.
type HealthConfig struct {
	// Threshold quarantines an instance after this many faults inside
	// Window. 0 means DefaultFaultThreshold; negative disables
	// quarantining (faults are still tracked and reported).
	Threshold int
	// Window is the sliding window Threshold counts within
	// (0 = DefaultFaultWindow).
	Window time.Duration
	// Clock overrides the time source (tests).
	Clock func() time.Time
	// OnFault, when set, observes every recorded fault (logging hooks).
	OnFault func(*PluginFault)
	// OnQuarantine runs when an instance crosses the threshold (or is
	// quarantined manually, with a nil fault): the router facade uses it
	// to unbind the instance's filters and flush its flows. It runs
	// without Health's lock held, inside its own panic barrier.
	OnQuarantine func(inst Instance, f *PluginFault)
}

// instanceHealth is one instance's fault ledger.
type instanceHealth struct {
	plugin        string // best-known owner name ("" when only the code is known)
	code          Code
	instance      string
	recent        []time.Time // fault times inside the current window
	total         uint64
	last          *PluginFault
	quarantined   bool
	quarantinedAt time.Time
	drained       bool // every in-flight dispatch has quiesced since quarantine
	manual        bool // operator-requested quarantine
}

// Health tracks per-instance fault counts and quarantine state. All
// methods are fault/control path (mutex-guarded); nothing here runs on
// the no-fault packet path.
type Health struct {
	cfg HealthConfig

	mu     sync.Mutex
	byInst map[Instance]*instanceHealth

	// Telemetry cells (SetTelemetry); nil-safe when telemetry is off.
	telGateFaults       *telemetry.Counter
	telControlFaults    *telemetry.Counter
	telClassifierFaults *telemetry.Counter
	telQuarantines      *telemetry.Counter
	telQuarantined      *telemetry.Gauge
	jr                  *telemetry.Journal
}

// NewHealth builds a health tracker.
func NewHealth(cfg HealthConfig) *Health {
	return &Health{cfg: cfg, byInst: make(map[Instance]*instanceHealth)}
}

// SetTelemetry attaches fault and quarantine metrics. Call once at
// assembly time.
func (h *Health) SetTelemetry(t *telemetry.Telemetry) {
	fault := func(origin FaultOrigin) *telemetry.Counter {
		return t.Counter("eisr_plugin_faults_total", "plugin panics contained by the fault barrier",
			telemetry.Label{Key: "origin", Value: string(origin)})
	}
	h.telGateFaults = fault(OriginGate)
	h.telControlFaults = fault(OriginControl)
	h.telClassifierFaults = fault(OriginClassifier)
	h.telQuarantines = t.Counter("eisr_plugin_quarantines_total", "instances quarantined after repeated faults")
	h.telQuarantined = t.Gauge("eisr_plugins_quarantined", "instances currently quarantined")
	h.jr = t.Journal()
}

func (h *Health) now() time.Time {
	if h.cfg.Clock != nil {
		return h.cfg.Clock()
	}
	return time.Now()
}

func (h *Health) threshold() int {
	if h.cfg.Threshold == 0 {
		return DefaultFaultThreshold
	}
	return h.cfg.Threshold
}

func (h *Health) window() time.Duration {
	if h.cfg.Window <= 0 {
		return DefaultFaultWindow
	}
	return h.cfg.Window
}

// faultCell picks the per-origin counter.
func (h *Health) faultCell(origin FaultOrigin) *telemetry.Counter {
	switch origin {
	case OriginControl:
		return h.telControlFaults
	case OriginClassifier:
		return h.telClassifierFaults
	default:
		return h.telGateFaults
	}
}

// Record ingests one fault. When inst is non-nil the fault counts
// toward the instance's quarantine threshold; crossing it fires the
// OnQuarantine hook (outside the lock, inside its own barrier).
func (h *Health) Record(f *PluginFault, inst Instance) {
	if h == nil || f == nil {
		return
	}
	h.faultCell(f.Origin).Inc()
	if h.cfg.OnFault != nil {
		safely(func() { h.cfg.OnFault(f) })
	}
	if inst == nil {
		return
	}
	h.mu.Lock()
	ih := h.entryLocked(inst, f)
	ih.total++
	ih.last = f
	ih.recent = append(ih.recent, f.When)
	ih.recent = pruneWindow(ih.recent, f.When.Add(-h.window()))
	trigger := false
	if thr := h.threshold(); thr > 0 && !ih.quarantined && len(ih.recent) >= thr {
		ih.quarantined = true
		ih.quarantinedAt = f.When
		trigger = true
	}
	name := ih.plugin + "/" + ih.instance
	n := h.quarantinedLocked()
	h.mu.Unlock()
	if trigger {
		h.telQuarantines.Inc()
		h.telQuarantined.Set(int64(n))
		h.jr.Record(telemetry.EvQuarantine, name)
		if h.cfg.OnQuarantine != nil {
			safely(func() { h.cfg.OnQuarantine(inst, f) })
		}
	}
}

// Quarantine marks an instance quarantined by operator request ("pmgr
// quarantine"). It fires the OnQuarantine hook with a nil fault and
// reports false when the instance was already quarantined.
func (h *Health) Quarantine(inst Instance, plugin, instance string) bool {
	if h == nil || inst == nil {
		return false
	}
	now := h.now()
	h.mu.Lock()
	ih := h.byInst[inst]
	if ih == nil {
		ih = &instanceHealth{plugin: plugin, instance: instance}
		h.byInst[inst] = ih
	}
	if ih.plugin == "" {
		ih.plugin = plugin
	}
	if ih.instance == "" {
		ih.instance = instance
	}
	if ih.quarantined {
		h.mu.Unlock()
		return false
	}
	ih.quarantined, ih.manual, ih.quarantinedAt = true, true, now
	name := ih.plugin + "/" + ih.instance
	n := h.quarantinedLocked()
	h.mu.Unlock()
	h.telQuarantines.Inc()
	h.telQuarantined.Set(int64(n))
	h.jr.Record(telemetry.EvQuarantine, name)
	if h.cfg.OnQuarantine != nil {
		safely(func() { h.cfg.OnQuarantine(inst, nil) })
	}
	return true
}

// IsQuarantined reports an instance's quarantine state.
func (h *Health) IsQuarantined(inst Instance) bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ih := h.byInst[inst]
	return ih != nil && ih.quarantined
}

// MarkDrained records that every dispatch in flight at quarantine time
// has quiesced (the facade defers this through the epoch reclaimer).
func (h *Health) MarkDrained(inst Instance) {
	if h == nil {
		return
	}
	h.mu.Lock()
	var name string
	if ih := h.byInst[inst]; ih != nil && ih.quarantined && !ih.drained {
		ih.drained = true
		name = ih.plugin + "/" + ih.instance
	}
	h.mu.Unlock()
	if name != "" {
		h.jr.Record(telemetry.EvQuarantineDrained, name)
	}
}

// Forget drops an instance's ledger (free-instance).
func (h *Health) Forget(inst Instance) {
	if h == nil || inst == nil {
		return
	}
	h.mu.Lock()
	ih := h.byInst[inst]
	delete(h.byInst, inst)
	n := h.quarantinedLocked()
	h.mu.Unlock()
	if ih != nil && ih.quarantined {
		h.telQuarantined.Set(int64(n))
	}
}

// entryLocked finds or creates an instance's ledger, refreshing its
// identity from the fault. Caller holds h.mu.
func (h *Health) entryLocked(inst Instance, f *PluginFault) *instanceHealth {
	ih := h.byInst[inst]
	if ih == nil {
		ih = &instanceHealth{}
		h.byInst[inst] = ih
	}
	if ih.plugin == "" {
		ih.plugin = f.Plugin
	}
	if ih.instance == "" {
		ih.instance = f.Instance
	}
	if ih.code == 0 {
		ih.code = f.Code
	}
	return ih
}

// quarantinedLocked counts quarantined instances. Caller holds h.mu.
func (h *Health) quarantinedLocked() int {
	n := 0
	for _, ih := range h.byInst {
		if ih.quarantined {
			n++
		}
	}
	return n
}

// pruneWindow drops timestamps before cutoff, in place.
func pruneWindow(ts []time.Time, cutoff time.Time) []time.Time {
	kept := ts[:0]
	for _, t := range ts {
		if !t.Before(cutoff) {
			kept = append(kept, t)
		}
	}
	return kept
}

// InstanceHealth is one instance's row in the health report (the
// "pmgr health" payload).
type InstanceHealth struct {
	Plugin      string `json:"plugin,omitempty"`
	Code        string `json:"code,omitempty"`
	Instance    string `json:"instance"`
	Faults      uint64 `json:"faults"`
	Recent      int    `json:"recent"` // faults inside the current window
	Quarantined bool   `json:"quarantined"`
	Drained     bool   `json:"drained,omitempty"`
	Manual      bool   `json:"manual,omitempty"`
	LastOrigin  string `json:"last_origin,omitempty"`
	LastPanic   string `json:"last_panic,omitempty"`
}

// Report snapshots every tracked instance, quarantined first, then by
// descending fault count.
func (h *Health) Report() []InstanceHealth {
	if h == nil {
		return nil
	}
	cutoff := h.now().Add(-h.window())
	h.mu.Lock()
	out := make([]InstanceHealth, 0, len(h.byInst))
	for _, ih := range h.byInst {
		row := InstanceHealth{
			Plugin: ih.plugin, Instance: ih.instance,
			Faults: ih.total, Quarantined: ih.quarantined,
			Drained: ih.drained, Manual: ih.manual,
		}
		if ih.code != 0 {
			row.Code = ih.code.String()
		}
		for _, t := range ih.recent {
			if !t.Before(cutoff) {
				row.Recent++
			}
		}
		if ih.last != nil {
			row.LastOrigin = string(ih.last.Origin)
			row.LastPanic = fmt.Sprint(ih.last.Panic)
		}
		out = append(out, row)
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Quarantined != out[j].Quarantined {
			return out[i].Quarantined
		}
		if out[i].Faults != out[j].Faults {
			return out[i].Faults > out[j].Faults
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// safely runs a fault-handling hook inside its own barrier: the hooks
// execute plugin code (filter-removed listeners, the instance's own
// identity methods), and a second panic while
// handling the first must not escape and kill the router after all.
func safely(fn func()) {
	defer func() { _ = recover() }()
	fn()
}

// Guard is the panic barrier every plugin invocation runs through. A
// nil *Guard still contains panics (methods are nil-receiver safe) with
// the default drop policy and no health tracking, so components wired
// without one — unit tests, benchmarks — never crash on a plugin panic
// either.
type Guard struct {
	policy Policy
	health *Health
}

// NewGuard builds a barrier with a packet policy and an optional health
// tracker.
func NewGuard(policy Policy, h *Health) *Guard {
	return &Guard{policy: policy, health: h}
}

// Policy returns the packet fault policy (drop for a nil guard).
func (g *Guard) Policy() Policy {
	if g == nil {
		return PolicyDrop
	}
	return g.policy
}

// Health returns the attached tracker (nil for a nil guard).
func (g *Guard) Health() *Health {
	if g == nil {
		return nil
	}
	return g.health
}

func (g *Guard) now() time.Time {
	if g != nil && g.health != nil {
		return g.health.now()
	}
	return time.Now()
}

// newFault builds the structured fault for a recovered panic. The
// instance's identity methods are plugin code too, so they are sampled
// inside their own barrier.
func (g *Guard) newFault(origin FaultOrigin, gate Type, inst Instance, v any) *PluginFault {
	f := &PluginFault{
		Origin: origin, Gate: gate, Panic: v,
		Stack: debug.Stack(), When: g.now(),
	}
	if inst != nil {
		safely(func() { f.Instance = inst.InstanceName() })
		if c, ok := inst.(interface{ PluginCode() Code }); ok {
			safely(func() { f.Code = c.PluginCode() })
		}
	}
	if f.Code == 0 && gate != TypeInvalid {
		f.Code = MakeCode(gate, 0)
	}
	return f
}

// deliver feeds a fault to the health tracker.
func (g *Guard) deliver(f *PluginFault, inst Instance) {
	if g == nil || g.health == nil || f == nil {
		return
	}
	g.health.Record(f, inst)
}

// Dispatch invokes inst.HandlePacket inside the barrier — the gate
// data path. On the no-fault path it costs one open-coded defer and a
// flag store: no recover call, no allocation. A panic is converted
// into a PluginFault (also returned as err), recorded against the
// instance, and — past the health threshold — triggers quarantine
// before Dispatch returns.
func (g *Guard) Dispatch(gate Type, inst Instance, p *pkt.Packet) (err error, flt *PluginFault) {
	panicked := true
	defer func() {
		if !panicked {
			return
		}
		flt = g.newFault(OriginGate, gate, inst, recover())
		err = flt
		g.deliver(flt, inst)
	}()
	err = inst.HandlePacket(p)
	panicked = false
	return err, nil
}

// DispatchBatch invokes bh.HandleBatch inside the same barrier as
// Dispatch — the vector gate data path. inst is the instance identity
// the fault is recorded against (bh and inst are the same object seen
// through different interfaces; passing both avoids a per-run type
// re-assertion). One panic out of a batch is one fault: it counts once
// toward the instance's quarantine threshold, and the caller applies
// the fault policy to every packet of the run, since the barrier cannot
// know which packets the instance finished before panicking.
func (g *Guard) DispatchBatch(gate Type, bh BatchHandler, inst Instance, ps []*pkt.Packet) (flt *PluginFault) {
	panicked := true
	defer func() {
		if !panicked {
			return
		}
		flt = g.newFault(OriginGate, gate, inst, recover())
		g.deliver(flt, inst)
	}()
	bh.HandleBatch(ps)
	panicked = false
	return nil
}

// Control invokes a plugin control callback inside the barrier: a
// panic fails the control request with the structured fault instead of
// crashing the router. Control faults are recorded against the target
// instance (when there is one) and count toward its quarantine
// threshold like any other fault.
func (g *Guard) Control(plugin string, code Code, inst Instance, call func() error) (err error) {
	panicked := true
	defer func() {
		if !panicked {
			return
		}
		flt := g.newFault(OriginControl, TypeInvalid, inst, recover())
		flt.Plugin, flt.Code = plugin, code
		err = flt
		g.deliver(flt, inst)
	}()
	err = call()
	panicked = false
	return err
}

// Capture runs fn inside the barrier and returns the fault (nil if fn
// completed). Unlike Dispatch it does NOT deliver the fault: the
// classifier matches under its table lock, and delivery can re-enter
// that lock (quarantine unbinds filters), so the caller passes the
// captured fault to Deliver after releasing its locks.
func (g *Guard) Capture(origin FaultOrigin, gate Type, inst Instance, fn func()) (flt *PluginFault) {
	panicked := true
	defer func() {
		if !panicked {
			return
		}
		flt = g.newFault(origin, gate, inst, recover())
	}()
	fn()
	panicked = false
	return nil
}

// Deliver records a fault captured earlier with Capture, once the
// caller holds no locks the health hooks could need.
func (g *Guard) Deliver(flt *PluginFault, inst Instance) {
	g.deliver(flt, inst)
}
