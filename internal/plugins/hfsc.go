package plugins

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// HFSCPlugin wraps the Hierarchical Fair Service Curve scheduler (§6) as
// a scheduling plugin. Instances are per interface; the class hierarchy
// is configured through plugin-specific messages and filters bind flows
// to leaf classes.
type HFSCPlugin struct {
	env   *Env
	namer instanceNamer
}

// NewHFSCPlugin builds the plugin.
func NewHFSCPlugin(env *Env) *HFSCPlugin {
	return &HFSCPlugin{env: env, namer: instanceNamer{prefix: "hfsc"}}
}

// PluginName implements pcu.Plugin.
func (h *HFSCPlugin) PluginName() string { return "hfsc" }

// PluginCode implements pcu.Plugin.
func (h *HFSCPlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeSched, 2) }

// ParseCurve parses "m1,d,m2" or a single rate "m" (bytes/second,
// seconds).
func ParseCurve(s string) (sched.Curve, error) {
	parts := strings.Split(s, ",")
	switch len(parts) {
	case 1:
		m, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return sched.Curve{}, fmt.Errorf("plugins: bad curve %q", s)
		}
		return sched.LinearCurve(m), nil
	case 3:
		m1, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		d, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		m2, err3 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return sched.Curve{}, fmt.Errorf("plugins: bad curve %q", s)
		}
		return sched.Curve{M1: m1, D: d, M2: m2}, nil
	default:
		return sched.Curve{}, fmt.Errorf("plugins: curve must be 'rate' or 'm1,d,m2': %q", s)
	}
}

// Callback implements pcu.Plugin.
//
// create-instance args: iface=N (required), rate=BYTES/S (link rate,
// required).
// Custom "add-class" args: name=..., parent=... (optional), rt=, ls=,
// ul= (curves), drr=1 (use a DRR leaf queue — the HSF extension).
// register-instance args: filter=SPEC, class=NAME.
func (h *HFSCPlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		return createSched(h.env, msg, func(ifIdx int32) (schedInstance, error) {
			rate, err := argFloat(msg, "rate", 0)
			if err != nil {
				return nil, err
			}
			if rate <= 0 {
				return nil, fmt.Errorf("plugins: hfsc create-instance requires rate=BYTES/S")
			}
			slot, err := schedSlot(h.env)
			if err != nil {
				return nil, err
			}
			inst := &HFSCInstance{
				outIf: outIf{ifIdx}, name: h.namer.next(), env: h.env, slot: slot,
				hfsc: sched.NewHFSC(rate), classes: make(map[string]*sched.Class),
				epoch: h.env.now(),
			}
			inst.hfsc.Tel = h.env.Tel.SchedMetrics("hfsc", inst.name)
			// A default best-effort class catches unbound flows.
			ls := sched.LinearCurve(rate / 10)
			def, err := inst.hfsc.AddClass("default", nil, nil, &ls, nil, nil)
			if err != nil {
				return nil, err
			}
			inst.classes["default"] = def
			inst.def = def
			return inst, nil
		})
	case pcu.MsgFreeInstance:
		return freeSched[*HFSCInstance](h.env, msg)
	case pcu.MsgRegisterInstance:
		inst, ok := msg.Instance.(*HFSCInstance)
		if !ok {
			return fmt.Errorf("plugins: not an HFSC instance")
		}
		class := msg.Arg("class", "default")
		if inst.Class(class) == nil {
			return fmt.Errorf("plugins: hfsc has no class %q", class)
		}
		return register(h.env, pcu.TypeSched, msg, &Reservation{Class: class})
	case pcu.MsgDeregisterInstance:
		return deregister(h.env, pcu.TypeSched, msg)
	case pcu.MsgCustom:
		inst, ok := msg.Instance.(*HFSCInstance)
		if !ok {
			return fmt.Errorf("plugins: %q needs an instance", msg.Verb)
		}
		switch msg.Verb {
		case "add-class":
			return inst.addClass(msg)
		case "stats":
			msg.Reply = inst.ClassStats()
			return nil
		}
		return fmt.Errorf("plugins: hfsc has no message %q", msg.Verb)
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// HFSCInstance is one interface's H-FSC hierarchy.
type HFSCInstance struct {
	outIf
	name  string
	env   *Env
	slot  int
	epoch time.Time

	mu      sync.Mutex
	hfsc    *sched.HFSC
	classes map[string]*sched.Class
	def     *sched.Class
}

// InstanceName implements pcu.Instance.
func (i *HFSCInstance) InstanceName() string { return i.name }

func (i *HFSCInstance) nowSec() float64 { return i.env.now().Sub(i.epoch).Seconds() }

func (i *HFSCInstance) addClass(msg *pcu.Message) error {
	name, ok := msg.Args["name"]
	if !ok {
		return fmt.Errorf("plugins: add-class requires name=")
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if _, dup := i.classes[name]; dup {
		return fmt.Errorf("plugins: class %q exists", name)
	}
	var parent *sched.Class
	if pn, ok := msg.Args["parent"]; ok {
		parent = i.classes[pn]
		if parent == nil {
			return fmt.Errorf("plugins: no parent class %q", pn)
		}
	}
	var rt, ls, ul *sched.Curve
	for key, dst := range map[string]**sched.Curve{"rt": &rt, "ls": &ls, "ul": &ul} {
		if s, ok := msg.Args[key]; ok {
			c, err := ParseCurve(s)
			if err != nil {
				return err
			}
			*dst = &c
		}
	}
	var queue sched.LeafQueue
	if msg.Arg("drr", "") != "" {
		leaf := sched.NewDRRLeaf(1500)
		leaf.PerFlow = true // HSF: fair queuing among the class's flows
		queue = leaf
	}
	cl, err := i.hfsc.AddClass(name, parent, rt, ls, ul, queue)
	if err != nil {
		return err
	}
	i.classes[name] = cl
	msg.Reply = cl
	return nil
}

// Class finds a class by name.
func (i *HFSCInstance) Class(name string) *sched.Class {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.classes[name]
}

// HandlePacket implements pcu.Instance: map the flow to its class via
// the filter reservation, enqueue at the current time.
func (i *HFSCInstance) HandlePacket(p *pkt.Packet) error {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	if rec == nil {
		return fmt.Errorf("hfsc: packet carries no flow record")
	}
	b := rec.Bind(i.slot)
	i.mu.Lock()
	defer i.mu.Unlock()
	cl, _ := b.Private.(*sched.Class)
	if cl == nil {
		cl = i.def
		if b.Rec != nil {
			if res, ok := b.Rec.Private.(*Reservation); ok && res.Class != "" {
				if c := i.classes[res.Class]; c != nil {
					cl = c
				}
			}
		}
		b.Private = cl
	}
	return i.hfsc.EnqueueClass(cl, p, i.nowSec())
}

// Drain implements ipcore.Drainer.
func (i *HFSCInstance) Drain() *pkt.Packet {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hfsc.DequeueAt(i.nowSec())
}

// Backlog implements ipcore.Drainer.
func (i *HFSCInstance) Backlog() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hfsc.Len()
}

// Scheduler exposes the underlying H-FSC for simulators.
func (i *HFSCInstance) Scheduler() *sched.HFSC { return i.hfsc }

// ClassStat is one class's service snapshot.
type ClassStat struct {
	Name   string
	Served uint64
	Drops  uint64
}

// ClassStats snapshots per-class service.
func (i *HFSCInstance) ClassStats() []ClassStat {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]ClassStat, 0, len(i.classes))
	for name, cl := range i.classes {
		out = append(out, ClassStat{Name: name, Served: cl.Served, Drops: cl.Drops})
	}
	return out
}
