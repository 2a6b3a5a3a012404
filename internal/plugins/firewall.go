package plugins

import (
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// FirewallPlugin is the firewall plugin the paper envisions (§2 names
// firewalls as a primary application: "it is very important to be able
// to quickly and efficiently classify packets into flows, and to apply
// different policies to different flows"). Verdicts are per-filter hard
// state: each register-instance carries action=allow|deny, and the
// instance applies the verdict of the filter its flow matched. The
// instance's default policy covers unmatched flows reaching the gate.
type FirewallPlugin struct {
	env   *Env
	namer instanceNamer
}

// NewFirewallPlugin builds the plugin.
func NewFirewallPlugin(env *Env) *FirewallPlugin {
	return &FirewallPlugin{env: env, namer: instanceNamer{prefix: "fw"}}
}

// PluginName implements pcu.Plugin.
func (f *FirewallPlugin) PluginName() string { return "firewall" }

// PluginCode implements pcu.Plugin.
func (f *FirewallPlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeFirewall, 1) }

// Verdict is the per-filter firewall action.
type Verdict bool

// The verdicts.
const (
	Allow Verdict = true
	Deny  Verdict = false
)

// Callback implements pcu.Plugin.
//
// create-instance args: default=allow|deny (allow).
// register-instance args: filter=SPEC, action=allow|deny (deny).
func (f *FirewallPlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		def := msg.Arg("default", "allow")
		if def != "allow" && def != "deny" {
			return fmt.Errorf("plugins: bad default policy %q", def)
		}
		inst := &FirewallInstance{name: f.namer.next(), defaultAllow: def == "allow"}
		inst.slot, _ = f.env.AIU.Slot(pcu.TypeFirewall)
		msg.Reply = inst
		return nil
	case pcu.MsgFreeInstance:
		f.env.AIU.UnbindInstance(msg.Instance)
		return nil
	case pcu.MsgRegisterInstance:
		action := msg.Arg("action", "deny")
		var v Verdict
		switch action {
		case "allow":
			v = Allow
		case "deny":
			v = Deny
		default:
			return fmt.Errorf("plugins: bad action %q", action)
		}
		return register(f.env, pcu.TypeFirewall, msg, v)
	case pcu.MsgDeregisterInstance:
		return deregister(f.env, pcu.TypeFirewall, msg)
	case pcu.MsgCustom:
		return reply("firewall", "stats", msg, func(i *FirewallInstance) any { return i.Snapshot() })
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// FirewallInstance applies verdicts.
type FirewallInstance struct {
	name         string
	slot         int
	defaultAllow bool

	mu sync.Mutex
	st FirewallStats
}

// FirewallStats counts firewall decisions.
type FirewallStats struct {
	Allowed uint64
	Denied  uint64
}

// InstanceName implements pcu.Instance.
func (i *FirewallInstance) InstanceName() string { return i.name }

// HandlePacket implements pcu.Instance.
func (i *FirewallInstance) HandlePacket(p *pkt.Packet) error {
	allow := i.defaultAllow
	if rec, _ := p.FIX.(*aiu.FlowRecord); rec != nil {
		if fr := rec.Filter(i.slot); fr != nil {
			if v, ok := fr.Private.(Verdict); ok {
				allow = bool(v)
			}
		}
	}
	i.mu.Lock()
	if allow {
		i.st.Allowed++
	} else {
		i.st.Denied++
	}
	i.mu.Unlock()
	if !allow {
		p.MarkDrop("firewall: denied")
	}
	return nil
}

// HandleBatch implements pcu.BatchHandler: the same per-packet verdict
// cascade as HandlePacket, with the decision counters accumulated
// locally and merged under one mutex acquisition per batch instead of
// one per packet. Denied packets are marked (the core honors p.Drop
// after the dispatch exactly as it honors a HandlePacket error).
func (i *FirewallInstance) HandleBatch(ps []*pkt.Packet) {
	var allowed, denied uint64
	for _, p := range ps {
		allow := i.defaultAllow
		if rec, _ := p.FIX.(*aiu.FlowRecord); rec != nil {
			if fr := rec.Filter(i.slot); fr != nil {
				if v, ok := fr.Private.(Verdict); ok {
					allow = bool(v)
				}
			}
		}
		if allow {
			allowed++
		} else {
			denied++
			p.MarkDrop("firewall: denied")
		}
	}
	i.mu.Lock()
	i.st.Allowed += allowed
	i.st.Denied += denied
	i.mu.Unlock()
}

// Snapshot returns the counters.
func (i *FirewallInstance) Snapshot() FirewallStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.st
}
