package plugins

import (
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// OptionsPlugin processes IP options at the options gate — the plugin
// type the paper describes as potentially "a dozen lines of code for an
// IP option plugin". It parses IPv4 options and IPv6 hop-by-hop
// extension headers, counts router alerts, and (in strict mode) drops
// packets carrying unknown options.
type OptionsPlugin struct {
	env   *Env
	namer instanceNamer
}

// NewOptionsPlugin builds the plugin.
func NewOptionsPlugin(env *Env) *OptionsPlugin {
	return &OptionsPlugin{env: env, namer: instanceNamer{prefix: "opt"}}
}

// PluginName implements pcu.Plugin.
func (o *OptionsPlugin) PluginName() string { return "options" }

// PluginCode implements pcu.Plugin.
func (o *OptionsPlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeOptions, 1) }

// Callback implements pcu.Plugin.
//
// create-instance args: strict=1 drops packets with unknown options.
func (o *OptionsPlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		inst := &OptionsInstance{name: o.namer.next(), strict: msg.Arg("strict", "") != ""}
		msg.Reply = inst
		return nil
	case pcu.MsgFreeInstance:
		o.env.AIU.UnbindInstance(msg.Instance)
		return nil
	case pcu.MsgRegisterInstance:
		return register(o.env, pcu.TypeOptions, msg, nil)
	case pcu.MsgDeregisterInstance:
		return deregister(o.env, pcu.TypeOptions, msg)
	case pcu.MsgCustom:
		return reply("options", "stats", msg, func(i *OptionsInstance) any { return i.Snapshot() })
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// The IPv4 router-alert option type (RFC 2113).
const ipv4RouterAlert = 0x94

// OptionsInstance is one configuration of the option processor.
type OptionsInstance struct {
	name   string
	strict bool

	mu sync.Mutex
	st OptionsStats
}

// OptionsStats counts option events.
type OptionsStats struct {
	Packets      uint64
	RouterAlerts uint64
	Unknown      uint64
	Dropped      uint64
}

// InstanceName implements pcu.Instance.
func (i *OptionsInstance) InstanceName() string { return i.name }

// HandlePacket implements pcu.Instance.
func (i *OptionsInstance) HandlePacket(p *pkt.Packet) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.st.Packets++
	switch p.Version() {
	case 4:
		h, err := pkt.ParseIPv4(p.Data)
		if err != nil {
			return err
		}
		opts := h.Options
		for len(opts) > 0 {
			t := opts[0]
			if t == 0 { // end of options
				break
			}
			if t == 1 { // nop
				opts = opts[1:]
				continue
			}
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				i.st.Unknown++
				break
			}
			if t == ipv4RouterAlert {
				i.st.RouterAlerts++
			} else {
				i.st.Unknown++
				if i.strict {
					i.st.Dropped++
					p.MarkDrop()
					return nil
				}
			}
			opts = opts[opts[1]:]
		}
	case 6:
		h, err := pkt.ParseIPv6(p.Data)
		if err != nil {
			return err
		}
		if h.NextHeader != pkt.ProtoHopByHop {
			return nil
		}
		hh, err := pkt.ParseHopByHop(p.Data[pkt.IPv6HeaderLen:])
		if err != nil {
			return err
		}
		for _, opt := range hh.Options {
			if opt.Type == pkt.Opt6RouterAlert {
				i.st.RouterAlerts++
				continue
			}
			i.st.Unknown++
			// RFC 2460: the top two bits of an unknown option type say
			// what to do; 00 = skip. Strict mode drops 01..11.
			if i.strict && opt.Type>>6 != 0 {
				i.st.Dropped++
				p.MarkDrop()
				return nil
			}
		}
	}
	return nil
}

// Snapshot returns the counters.
func (i *OptionsInstance) Snapshot() OptionsStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.st
}
