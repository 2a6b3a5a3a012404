// Package plugins contains the concrete router plugins: the weighted DRR
// and H-FSC packet schedulers of §6, the "empty" plugin used by the
// Table 3 gate-overhead measurement, and the additional plugin types the
// paper envisions (§4): RED congestion control, statistics gathering for
// network management, firewall filtering, TCP backoff monitoring, IP
// option processing, and per-flow routing (L4 switching).
//
// Every plugin implements pcu.Plugin: it registers a callback with the
// PCU and answers the standardized message set (create-instance,
// free-instance, register-instance, deregister-instance) plus its own
// plugin-specific messages.
package plugins

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/sched"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// Env gives plugins access to the kernel components they glue into: the
// AIU's published registration functions, the router core for drainer
// registration, and a clock. It is the Go analog of the kernel symbols a
// loaded module links against.
type Env struct {
	Router *ipcore.Router
	AIU    *aiu.AIU
	Clock  func() time.Time
	// Tel is the router's telemetry registry (nil when telemetry is
	// off); plugin instances register their metric bundles against it
	// at create time.
	Tel *telemetry.Telemetry
}

func (e *Env) now() time.Time {
	if e.Clock != nil {
		return e.Clock()
	}
	return time.Now()
}

// Reservation is the filter-record hard state carried by scheduler
// bindings: a weight (DRR) or class name (H-FSC) assigned to the flows
// the filter matches.
type Reservation struct {
	Weight float64
	Class  string

	// class caches the H-FSC class named by Class once it exists (see
	// HFSCInstance.classOf); guarded by the owning instance's mutex.
	class *sched.Class
}

// reservation returns the reservation installed with a flow's filter,
// nil when the flow matched no filter or the filter carries none.
//
//eisr:fastpath
func reservation(fr *aiu.FilterRecord) *Reservation {
	if fr == nil {
		return nil
	}
	res, _ := fr.Private.(*Reservation)
	return res
}

// parseFilterArg extracts and parses the "filter" argument of a
// register/deregister message.
func parseFilterArg(msg *pcu.Message) (aiu.Filter, error) {
	spec, ok := msg.Args["filter"]
	if !ok {
		return aiu.Filter{}, fmt.Errorf("plugins: %s requires a filter argument", msg.Kind)
	}
	return aiu.ParseFilter(spec)
}

// register performs the common register-instance handling: bind the
// filter to the instance at the plugin's gate with the given private
// state.
func register(env *Env, gate pcu.Type, msg *pcu.Message, private any) error {
	f, err := parseFilterArg(msg)
	if err != nil {
		return err
	}
	rec, err := env.AIU.Bind(gate, f, msg.Instance, private)
	if err != nil {
		return err
	}
	msg.Reply = rec
	return nil
}

// deregister removes a binding named by its filter.
func deregister(env *Env, gate pcu.Type, msg *pcu.Message) error {
	f, err := parseFilterArg(msg)
	if err != nil {
		return err
	}
	rec := env.AIU.FindRecord(gate, f, msg.Instance)
	if rec == nil {
		return fmt.Errorf("plugins: no binding for %s at gate %s", f, gate)
	}
	return env.AIU.Unbind(rec)
}

// reply answers a plugin's one custom message, verb, with fn's view of
// the instance of type I the message addresses.
func reply[I pcu.Instance](plugin, verb string, msg *pcu.Message, fn func(I) any) error {
	if msg.Verb != verb {
		return fmt.Errorf("plugins: %s has no message %q", plugin, msg.Verb)
	}
	inst, ok := msg.Instance.(I)
	if !ok {
		return fmt.Errorf("plugins: %s needs an instance", msg.Verb)
	}
	msg.Reply = fn(inst)
	return nil
}

// schedInstance is an instance at the scheduling gate: it owns the
// output queue of one interface.
type schedInstance interface {
	pcu.Instance
	ipcore.Drainer
	IfIndex() int32
}

// outIf is the interface a scheduling instance drains; every
// scheduling instance embeds it.
type outIf struct{ ifIdx int32 }

// IfIndex reports the interface this instance schedules.
func (o outIf) IfIndex() int32 { return o.ifIdx }

// createSched performs the common create-instance handling of a
// scheduling plugin: parse iface=, build the instance for that
// interface, and register it as the interface's drainer.
func createSched(env *Env, msg *pcu.Message, build func(ifIdx int32) (schedInstance, error)) error {
	ifIdx, err := argIf(msg)
	if err != nil {
		return err
	}
	inst, err := build(ifIdx)
	if err != nil {
		return err
	}
	if env.Router != nil {
		env.Router.RegisterDrainer(ifIdx, inst)
	}
	msg.Reply = inst
	return nil
}

// freeSched performs the common free-instance handling of a scheduling
// plugin whose instances are of type I: unregister the drainer and
// unbind the instance's filters. Another plugin's instance is refused.
func freeSched[I schedInstance](env *Env, msg *pcu.Message) error {
	inst, ok := msg.Instance.(I)
	if !ok {
		return fmt.Errorf("plugins: cannot free %T here", msg.Instance)
	}
	if env.Router != nil {
		env.Router.UnregisterDrainer(inst.IfIndex(), inst)
	}
	env.AIU.UnbindInstance(inst)
	return nil
}

// schedSlot is the scheduling gate's slot in a flow record.
func schedSlot(env *Env) (int, error) {
	slot, ok := env.AIU.Slot(pcu.TypeSched)
	if !ok {
		return 0, fmt.Errorf("plugins: AIU has no scheduling gate")
	}
	return slot, nil
}

func argFloat(msg *pcu.Message, key string, def float64) (float64, error) {
	s, ok := msg.Args[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("plugins: bad %s=%q: %w", key, s, err)
	}
	return v, nil
}

func argInt(msg *pcu.Message, key string, def int) (int, error) {
	s, ok := msg.Args[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("plugins: bad %s=%q: %w", key, s, err)
	}
	return v, nil
}

func argIf(msg *pcu.Message) (int32, error) {
	s, ok := msg.Args["iface"]
	if !ok {
		return 0, fmt.Errorf("plugins: create-instance requires iface=N")
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("plugins: bad iface=%q", s)
	}
	return int32(v), nil
}

// instanceNamer hands out instance names like "drr0", "drr1".
type instanceNamer struct {
	mu     sync.Mutex
	prefix string
	n      int
}

func (g *instanceNamer) next() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	name := fmt.Sprintf("%s%d", g.prefix, g.n)
	g.n++
	return name
}
