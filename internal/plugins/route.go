package plugins

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// RoutePlugin realizes the paper's §8 future work: "the integration of
// routing into the packet classifier... By unifying routing and packet
// classification, we get QoS-based routing / Level 4 switching for
// free." Filters — which may inspect any of the six tuple fields, not
// just the destination — bind flows to next hops; the routing gate sets
// the forwarding decision per flow, with the conventional
// destination-prefix table as fallback for unbound flows.
type RoutePlugin struct {
	env   *Env
	namer instanceNamer
}

// NewRoutePlugin builds the plugin.
func NewRoutePlugin(env *Env) *RoutePlugin {
	return &RoutePlugin{env: env, namer: instanceNamer{prefix: "l4route"}}
}

// PluginName implements pcu.Plugin.
func (r *RoutePlugin) PluginName() string { return "l4route" }

// PluginCode implements pcu.Plugin.
func (r *RoutePlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeRouting, 1) }

// Callback implements pcu.Plugin.
//
// register-instance args: filter=SPEC, dev=N (required), via=ADDR.
func (r *RoutePlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		inst := &RouteInstance{name: r.namer.next()}
		inst.slot, _ = r.env.AIU.Slot(pcu.TypeRouting)
		msg.Reply = inst
		return nil
	case pcu.MsgFreeInstance:
		r.env.AIU.UnbindInstance(msg.Instance)
		return nil
	case pcu.MsgRegisterInstance:
		devStr, ok := msg.Args["dev"]
		if !ok {
			return fmt.Errorf("plugins: l4route register-instance requires dev=N")
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil || dev < 0 {
			return fmt.Errorf("plugins: bad dev=%q", devStr)
		}
		nh := routing.NextHop{IfIndex: int32(dev)}
		if via, ok := msg.Args["via"]; ok {
			gw, err := pkt.ParseAddr(via)
			if err != nil {
				return fmt.Errorf("plugins: bad via=%q: %w", via, err)
			}
			nh.Gateway = gw
		}
		return register(r.env, pcu.TypeRouting, msg, nh)
	case pcu.MsgDeregisterInstance:
		return deregister(r.env, pcu.TypeRouting, msg)
	case pcu.MsgCustom:
		return reply("l4route", "stats", msg, func(i *RouteInstance) any { return i.Snapshot() })
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// RouteInstance applies per-flow forwarding decisions.
type RouteInstance struct {
	name string
	slot int

	mu sync.Mutex
	st RouteStats
}

// RouteStats counts routing-gate decisions.
type RouteStats struct {
	Switched uint64 // packets routed by a flow filter
}

// InstanceName implements pcu.Instance.
func (i *RouteInstance) InstanceName() string { return i.name }

// HandlePacket implements pcu.Instance: set the packet's forwarding
// decision from the matched filter's next hop.
func (i *RouteInstance) HandlePacket(p *pkt.Packet) error {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	if rec == nil {
		return nil
	}
	fr := rec.Filter(i.slot)
	if fr == nil {
		return nil
	}
	nh, ok := fr.Private.(routing.NextHop)
	if !ok {
		return nil
	}
	p.OutIf = nh.IfIndex
	p.NextHop = nh.Gateway
	i.mu.Lock()
	i.st.Switched++
	i.mu.Unlock()
	return nil
}

// Snapshot returns the counters.
func (i *RouteInstance) Snapshot() RouteStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.st
}
