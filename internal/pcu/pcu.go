// Package pcu implements the Plugin Control Unit (§4 of the paper): the
// registry that manages plugins, tracks their instances, and dispatches
// control-path messages to them. The PCU is deliberately small — the
// paper's implementation is ~200 lines of C managing a table per plugin
// type for names and callback functions — and it knows nothing about the
// data path: it only forwards messages.
//
// Plugins are identified by a 32-bit code whose upper 16 bits name the
// plugin type and whose lower 16 bits distinguish implementations of the
// same type. The plugin type corresponds directly to a gate in the IP
// core: whenever a packet enters a gate it is passed to an instance of a
// plugin of that type.
package pcu

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Type is a plugin type, which corresponds one-to-one with a gate in the
// IP core (§4: "there is a direct correspondence between a gate in our
// architecture and the plugin type").
type Type uint16

// The plugin types of the paper's implementation. Third-party types can
// use any value above TypeUser.
const (
	TypeInvalid  Type = 0
	TypeOptions  Type = 1 // IPv4/IPv6 option processing
	TypeSecurity Type = 2 // IP security (AH/ESP)
	TypeSched    Type = 3 // packet scheduling
	TypeBMP      Type = 4 // longest-prefix matching for the classifier
	TypeRouting  Type = 5 // routing integrated with classification (§8)
	TypeStats    Type = 6 // statistics gathering / network monitoring
	TypeCongest  Type = 7 // congestion control (RED)
	TypeFirewall Type = 8 // firewall accept/deny
	TypeMonitor  Type = 9 // TCP congestion backoff monitoring
	TypeUser     Type = 256
)

// String names the well-known types.
func (t Type) String() string {
	switch t {
	case TypeOptions:
		return "options"
	case TypeSecurity:
		return "security"
	case TypeSched:
		return "sched"
	case TypeBMP:
		return "bmp"
	case TypeRouting:
		return "routing"
	case TypeStats:
		return "stats"
	case TypeCongest:
		return "congest"
	case TypeFirewall:
		return "firewall"
	case TypeMonitor:
		return "monitor"
	default:
		return fmt.Sprintf("type%d", uint16(t))
	}
}

// Code is the 32-bit plugin code: type in the upper 16 bits,
// implementation id in the lower 16.
type Code uint32

// MakeCode assembles a plugin code.
func MakeCode(t Type, impl uint16) Code {
	return Code(uint32(t)<<16 | uint32(impl))
}

// Type extracts the plugin type.
func (c Code) Type() Type { return Type(c >> 16) }

// Impl extracts the implementation id.
func (c Code) Impl() uint16 { return uint16(c) }

// String renders "type/impl".
func (c Code) String() string {
	return fmt.Sprintf("%s/%d", c.Type(), c.Impl())
}

// Instance is a specific run-time configuration of a plugin — the entity
// bound to flows and called on the data path. HandlePacket is the main
// packet processing function invoked at the gate; it must be safe for the
// data-path goroutine and must not block.
type Instance interface {
	// InstanceName identifies the instance ("drr0", "sec2", ...).
	InstanceName() string
	// HandlePacket processes one packet at the instance's gate. An
	// error marks the packet dropped with the error text. At the
	// scheduling gate the error is the whole verdict: nil means the
	// instance took (queued) the packet, which is then the instance's
	// alone — the core does not read or write it again.
	HandlePacket(p *pkt.Packet) error
}

// BatchHandler is the optional vector fast path of the plugin ABI: an
// instance that also implements it receives whole runs of a worker's
// packet vector from the gate walk — one indirect call (and typically
// one lock acquisition) per contiguous run of packets bound to the
// instance, instead of one per packet. A run of one, and every
// dispatch to an instance without the interface, goes through
// HandlePacket.
//
// Contract:
//   - ps holds two or more packets, in arrival order, and every
//     packet's flow is bound to this instance at the dispatching gate.
//     The slice is the core's scratch — the instance must not retain it
//     past the call.
//   - An instance that takes a packet — a scheduler queueing it — sets
//     its slot to nil; that is the only way to take one. From then on
//     the packet is the instance's and the core never touches it again
//     (the drainer may transmit and recycle it at any moment). Only
//     scheduling instances take packets; at the scheduling gate a
//     packet left in the slice was not queued and is dropped.
//   - Other per-packet verdicts are signaled by marking the packet
//     (p.MarkDrop, which takes no text) and leaving it in the slice;
//     there is no per-packet error return. The core honors p.Drop after
//     the call exactly as it honors a HandlePacket error, so each
//     rejected packet is dropped once, as pkt.DropPlugin, with identical
//     accounting on both paths. Why the instance rejected it is the
//     instance's own statistics, not the packet's.
//   - A panic is contained by the same Guard barrier as HandlePacket
//     and counts one fault against the instance; every packet still in
//     the slice then receives the fault policy (the per-packet path
//     would have faulted each packet individually — batching coarsens
//     the blast radius to the batch, never beyond it).
type BatchHandler interface {
	HandleBatch(ps []*pkt.Packet)
}

// MsgKind is the kind of a control message. The standardized message set
// (§4) must be answered by every plugin; plugin-specific messages use
// MsgCustom with a verb.
type MsgKind int

// The standardized messages plus the custom escape hatch.
const (
	MsgCreateInstance MsgKind = iota + 1
	MsgFreeInstance
	MsgRegisterInstance
	MsgDeregisterInstance
	MsgCustom
)

func (k MsgKind) String() string {
	switch k {
	case MsgCreateInstance:
		return "create-instance"
	case MsgFreeInstance:
		return "free-instance"
	case MsgRegisterInstance:
		return "register-instance"
	case MsgDeregisterInstance:
		return "deregister-instance"
	case MsgCustom:
		return "custom"
	default:
		return fmt.Sprintf("msg%d", int(k))
	}
}

// Message is one control-path message to a plugin. Args carries
// configuration key/values ("iface", "rate", ...); Instance targets
// messages at a particular instance; Reply carries results back to the
// caller.
type Message struct {
	Kind     MsgKind
	Verb     string // for MsgCustom
	Args     map[string]string
	Instance Instance
	// Reply is set by the plugin: the created instance for
	// MsgCreateInstance, or a custom payload (e.g. statistics).
	Reply any
}

// Arg returns a message argument with a default.
func (m *Message) Arg(key, def string) string {
	if v, ok := m.Args[key]; ok {
		return v
	}
	return def
}

// Plugin is the contract every plugin fulfills: it identifies itself and
// answers control messages via its callback. Loading registers the
// callback with the PCU; afterwards all control communication flows
// through it.
type Plugin interface {
	// PluginName is the human name used by the plugin manager.
	PluginName() string
	// PluginCode is the 32-bit type/impl code.
	PluginCode() Code
	// Callback handles a control message. The standardized messages
	// must be supported; unknown custom verbs should return an error.
	Callback(msg *Message) error
}

// Errors reported by the registry.
var (
	ErrDuplicate   = errors.New("pcu: plugin already loaded")
	ErrNotLoaded   = errors.New("pcu: plugin not loaded")
	ErrNoSuchType  = errors.New("pcu: no plugin of that type")
	ErrBadInstance = errors.New("pcu: message requires an instance")
	// ErrDraining rejects create-instance while the plugin is being
	// unloaded: the unload path marks the plugin draining before it
	// frees instances, closing the window where a concurrent create
	// could land between the last free and the unload and be orphaned.
	ErrDraining = errors.New("pcu: plugin draining (unload in progress)")
)

// entry is one loaded plugin with its identity sampled at load time.
// Caching name and code means no registry method ever calls into plugin
// code (PluginName, PluginCode, Callback) while holding r.mu — a plugin
// whose identity methods turned around and called the registry would
// otherwise self-deadlock, and the lockscope analyzer forbids the shape
// outright.
type entry struct {
	plugin Plugin
	name   string
	code   Code
	// draining, guarded by the registry mutex, marks an unload in
	// progress: create-instance fails with ErrDraining until the unload
	// completes or is cancelled.
	draining bool
}

// Registry is the PCU proper: the per-type tables of loaded plugins.
// It is safe for concurrent use; all methods are control path.
type Registry struct {
	mu     sync.RWMutex
	byCode map[Code]*entry
	byName map[string]*entry
	// instances tracks live instances per plugin code, in creation
	// order, so free-instance and listings can find them.
	instances map[Code][]Instance

	// reclaim, when set, defers free-instance callbacks until every
	// forwarding worker has passed a quiescent point (SetReclaimer,
	// assembly time). Nil keeps the synchronous semantics.
	reclaim *Reclaimer

	// guard, when set, wraps every plugin Callback invocation in the
	// fault barrier so a panicking control handler fails the request
	// instead of crashing the router (SetGuard, assembly time).
	guard *Guard

	// tel, when set, records plugin lifecycle metrics. Set once at
	// assembly time (SetTelemetry) before concurrent use; all metric
	// cells are created lazily on the control path, which is the only
	// path the registry serves.
	tel        *telemetry.Telemetry
	telLoaded  *telemetry.Gauge
	telLoads   *telemetry.Counter
	telUnloads *telemetry.Counter
	jr         *telemetry.Journal
}

// NewRegistry returns an empty PCU.
func NewRegistry() *Registry {
	return &Registry{
		byCode:    make(map[Code]*entry),
		byName:    make(map[string]*entry),
		instances: make(map[Code][]Instance),
	}
}

// SetTelemetry attaches lifecycle metrics to the registry. Call once at
// assembly time, before the registry is used concurrently.
func (r *Registry) SetTelemetry(t *telemetry.Telemetry) {
	r.tel = t
	r.telLoaded = t.Gauge("eisr_plugins_loaded", "plugins currently loaded")
	r.telLoads = t.Counter("eisr_plugin_loads_total", "plugin load operations")
	r.telUnloads = t.Counter("eisr_plugin_unloads_total", "plugin unload operations")
	r.jr = t.Journal()
}

// SetGuard attaches the plugin fault barrier. Call once at assembly
// time; a nil registry guard leaves callbacks unwrapped (a panic in a
// control handler then propagates, the pre-isolation behavior).
func (r *Registry) SetGuard(g *Guard) { r.guard = g }

// Guard returns the attached fault barrier (nil when none is set).
func (r *Registry) Guard() *Guard { return r.guard }

// callback invokes a plugin's control callback through the fault
// barrier when one is attached. Faults are attributed to the message's
// target instance (when any) so repeated control-path panics quarantine
// the instance like data-path panics do.
func (r *Registry) callback(e *entry, msg *Message) error {
	if r.guard == nil {
		return e.plugin.Callback(msg)
	}
	return r.guard.Control(e.name, e.code, msg.Instance, func() error {
		return e.plugin.Callback(msg)
	})
}

// instanceGauge returns (creating if needed) the live-instance gauge for
// a plugin. Control path only; nil-safe through the registry.
func (r *Registry) instanceGauge(name string) *telemetry.Gauge {
	return r.tel.Gauge("eisr_plugin_instances", "live plugin instances",
		telemetry.Label{Key: "plugin", Value: name})
}

// Load registers a plugin (the analog of modload + callback
// registration). It fails if the code or name is already taken.
func (r *Registry) Load(p Plugin) error {
	// Sample the plugin's identity before taking the lock.
	e := &entry{plugin: p, name: p.PluginName(), code: p.PluginCode()}
	r.mu.Lock()
	if _, ok := r.byCode[e.code]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: code %s", ErrDuplicate, e.code)
	}
	if _, ok := r.byName[e.name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: name %q", ErrDuplicate, e.name)
	}
	r.byCode[e.code] = e
	r.byName[e.name] = e
	n := len(r.byName)
	r.mu.Unlock()
	r.telLoads.Inc()
	r.telLoaded.Set(int64(n))
	r.jr.Record(telemetry.EvPluginLoad, e.name)
	return nil
}

// Unload removes a plugin. The caller is responsible for having freed
// its instances first (the router facade enforces this, bracketing the
// frees with BeginDrain so no concurrent create can slip in between).
func (r *Registry) Unload(name string) error {
	r.mu.Lock()
	e, ok := r.byName[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotLoaded, name)
	}
	if n := len(r.instances[e.code]); n > 0 {
		e.draining = false
		r.mu.Unlock()
		return fmt.Errorf("pcu: plugin %q still has %d live instances", name, n)
	}
	delete(r.byName, name)
	delete(r.byCode, e.code)
	delete(r.instances, e.code)
	n := len(r.byName)
	r.mu.Unlock()
	r.telUnloads.Inc()
	r.telLoaded.Set(int64(n))
	r.jr.Record(telemetry.EvPluginUnload, name)
	return nil
}

// BeginDrain marks a plugin draining: create-instance fails with
// ErrDraining until Unload completes or CancelDrain is called. The
// unload sequence is BeginDrain → free instances → Unload; without the
// mark, a create racing the sequence could land between the last free
// and the unload and leave an orphaned instance behind.
func (r *Registry) BeginDrain(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotLoaded, name)
	}
	e.draining = true
	return nil
}

// CancelDrain clears the draining mark after a failed unload, making the
// plugin usable again.
func (r *Registry) CancelDrain(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		e.draining = false
	}
}

// SetReclaimer attaches the epoch reclaimer: free-instance callbacks are
// deferred through it so a forwarding worker mid-dispatch never sees an
// instance destroyed under it. Call once at assembly time.
func (r *Registry) SetReclaimer(rc *Reclaimer) { r.reclaim = rc }

// Reclaimer returns the attached reclaimer (nil if none).
func (r *Registry) Reclaimer() *Reclaimer { return r.reclaim }

// Lookup finds a plugin by name.
func (r *Registry) Lookup(name string) (Plugin, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	if !ok {
		return nil, false
	}
	return e.plugin, true
}

// LookupCode finds a plugin by code.
func (r *Registry) LookupCode(c Code) (Plugin, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byCode[c]
	if !ok {
		return nil, false
	}
	return e.plugin, true
}

// Plugins lists loaded plugins sorted by code.
func (r *Registry) Plugins() []Plugin {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.byCode))
	for _, e := range r.byCode {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	// Sort on the cached codes outside the lock.
	sort.Slice(entries, func(i, j int) bool { return entries[i].code < entries[j].code })
	out := make([]Plugin, len(entries))
	for i, e := range entries {
		out[i] = e.plugin
	}
	return out
}

// Send dispatches a message to the named plugin and performs the PCU's
// bookkeeping for the standardized lifecycle messages: created instances
// are tracked, freed instances forgotten.
func (r *Registry) Send(name string, msg *Message) error {
	r.mu.RLock()
	e, ok := r.byName[name]
	r.mu.RUnlock()
	if !ok {
		r.countMessage(name, true)
		return fmt.Errorf("%w: %q", ErrNotLoaded, name)
	}
	r.countMessage(e.name, false)
	switch msg.Kind {
	case MsgFreeInstance, MsgRegisterInstance, MsgDeregisterInstance:
		if msg.Instance == nil {
			r.countError(e.name)
			return fmt.Errorf("%w: %s to %s", ErrBadInstance, msg.Kind, name)
		}
	case MsgCreateInstance:
		// Fail fast while an unload is draining the plugin; the append
		// below re-checks under the lock to close the TOCTOU window.
		r.mu.RLock()
		draining := e.draining
		r.mu.RUnlock()
		if draining {
			r.countError(e.name)
			return fmt.Errorf("%w: %q", ErrDraining, name)
		}
	}
	if msg.Kind == MsgFreeInstance {
		return r.freeInstance(e, msg)
	}
	// The callback runs with no registry lock held: plugins are free to
	// call back into the registry from their message handlers.
	if err := r.callback(e, msg); err != nil {
		r.countError(e.name)
		return fmt.Errorf("pcu: %s to %s: %w", msg.Kind, name, err)
	}
	if msg.Kind == MsgCreateInstance {
		inst, ok := msg.Reply.(Instance)
		if !ok {
			r.countError(e.name)
			return fmt.Errorf("pcu: plugin %s created no instance", name)
		}
		r.mu.Lock()
		// The callback ran unlocked; an unload may have started (or
		// finished) meanwhile. Publishing the instance now would orphan
		// it — delete(r.instances, e.code) has already run or is about
		// to — so roll the creation back instead.
		if r.byName[e.name] != e || e.draining {
			r.mu.Unlock()
			if rbErr := r.callback(e, &Message{Kind: MsgFreeInstance, Instance: inst}); rbErr != nil {
				r.countError(e.name)
				return fmt.Errorf("%w: %q (rollback also failed: %v)", ErrDraining, name, rbErr)
			}
			r.countError(e.name)
			return fmt.Errorf("%w: %q", ErrDraining, name)
		}
		r.instances[e.code] = append(r.instances[e.code], inst)
		n := len(r.instances[e.code])
		r.mu.Unlock()
		r.instanceGauge(e.name).Set(int64(n))
	}
	return nil
}

// freeInstance handles MsgFreeInstance. Without a reclaimer the
// callback runs synchronously and bookkeeping follows, as the paper's
// single-threaded kernel would. With one, the instance is forgotten
// immediately — it must already be unreachable from the data path (the
// facade unbinds and flushes first) — and the destructive callback is
// deferred until every worker online at this moment has quiesced.
func (r *Registry) freeInstance(e *entry, msg *Message) error {
	run := func() error {
		if err := r.callback(e, msg); err != nil {
			r.countError(e.name)
			return fmt.Errorf("pcu: %s to %s: %w", msg.Kind, e.name, err)
		}
		return nil
	}
	forget := func() {
		r.guard.Health().Forget(msg.Instance)
		r.mu.Lock()
		list := r.instances[e.code]
		for i, in := range list {
			if in == msg.Instance {
				r.instances[e.code] = append(list[:i], list[i+1:]...)
				break
			}
		}
		n := len(r.instances[e.code])
		r.mu.Unlock()
		r.instanceGauge(e.name).Set(int64(n))
	}
	if r.reclaim == nil {
		if err := run(); err != nil {
			return err
		}
		forget()
		return nil
	}
	forget()
	return r.reclaim.Defer(run)
}

// countMessage records one control message to a plugin; failed sends to
// unknown plugins are counted under plugin="?" so the error is visible
// without creating a metric per bad name.
func (r *Registry) countMessage(name string, unknown bool) {
	if r.tel == nil {
		return
	}
	if unknown {
		name = "?"
	}
	r.tel.Counter("eisr_pcu_messages_total", "control messages dispatched",
		telemetry.Label{Key: "plugin", Value: name}).Inc()
	if unknown {
		r.countError(name)
	}
}

// countError records a failed control message.
func (r *Registry) countError(name string) {
	if r.tel == nil {
		return
	}
	r.tel.Counter("eisr_pcu_errors_total", "control messages that failed",
		telemetry.Label{Key: "plugin", Value: name}).Inc()
}

// Instances lists the live instances of a plugin code.
func (r *Registry) Instances(c Code) []Instance {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Instance(nil), r.instances[c]...)
}

// FindInstance locates an instance by plugin name and instance name.
// The InstanceName calls happen on a snapshot, after the lock is
// released.
func (r *Registry) FindInstance(plugin, instance string) (Instance, error) {
	r.mu.RLock()
	e, ok := r.byName[plugin]
	if !ok {
		r.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrNotLoaded, plugin)
	}
	list := append([]Instance(nil), r.instances[e.code]...)
	r.mu.RUnlock()
	for _, in := range list {
		if in.InstanceName() == instance {
			return in, nil
		}
	}
	return nil, fmt.Errorf("pcu: plugin %q has no instance %q", plugin, instance)
}
