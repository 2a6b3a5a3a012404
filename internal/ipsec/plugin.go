package ipsec

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// Plugin is the IP security plugin registered at the security gate.
// Instances come in two modes: "encrypt" (tunnel ingress: matched flows
// are encapsulated toward a peer gateway) and "decrypt" (tunnel egress:
// ESP packets addressed to this gateway are opened and the inner
// datagram re-enters the data path). SAs are per-filter hard state, so
// different flows can use different tunnels through one instance — the
// paper's "SEC2" example.
type Plugin struct {
	aiu    *aiu.AIU
	router *ipcore.Router
	n      int
	mu     sync.Mutex
}

// NewPlugin builds the plugin.
func NewPlugin(a *aiu.AIU, r *ipcore.Router) *Plugin {
	return &Plugin{aiu: a, router: r}
}

// PluginName implements pcu.Plugin.
func (pl *Plugin) PluginName() string { return "ipsec" }

// PluginCode implements pcu.Plugin.
func (pl *Plugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeSecurity, 1) }

// Callback implements pcu.Plugin.
//
// create-instance args: mode=encrypt|decrypt, ttl=N (64).
// register-instance args: filter=SPEC, spi=N, local=ADDR, peer=ADDR,
// secret=HEX — the SA bound to the filter.
func (pl *Plugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		mode := msg.Arg("mode", "encrypt")
		if mode != "encrypt" && mode != "decrypt" {
			return fmt.Errorf("ipsec: bad mode %q", mode)
		}
		ttl := 64
		if s, ok := msg.Args["ttl"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 || v > 255 {
				return fmt.Errorf("ipsec: bad ttl %q", s)
			}
			ttl = v
		}
		pl.mu.Lock()
		name := fmt.Sprintf("sec%d", pl.n)
		pl.n++
		pl.mu.Unlock()
		inst := &Instance{name: name, encrypt: mode == "encrypt", ttl: uint8(ttl)}
		inst.slot, _ = pl.aiu.Slot(pcu.TypeSecurity)
		msg.Reply = inst
		return nil
	case pcu.MsgFreeInstance:
		pl.aiu.UnbindInstance(msg.Instance)
		return nil
	case pcu.MsgRegisterInstance:
		sa, err := saFromArgs(msg)
		if err != nil {
			return err
		}
		spec, ok := msg.Args["filter"]
		if !ok {
			return fmt.Errorf("ipsec: register-instance requires filter=")
		}
		f, err := aiu.ParseFilter(spec)
		if err != nil {
			return err
		}
		rec, err := pl.aiu.Bind(pcu.TypeSecurity, f, msg.Instance, sa)
		if err != nil {
			return err
		}
		msg.Reply = rec
		return nil
	case pcu.MsgDeregisterInstance:
		spec, ok := msg.Args["filter"]
		if !ok {
			return fmt.Errorf("ipsec: deregister-instance requires filter=")
		}
		f, err := aiu.ParseFilter(spec)
		if err != nil {
			return err
		}
		rec := pl.aiu.FindRecord(pcu.TypeSecurity, f, msg.Instance)
		if rec == nil {
			return fmt.Errorf("ipsec: no binding for %s", f)
		}
		return pl.aiu.Unbind(rec)
	default:
		return fmt.Errorf("ipsec: unhandled message kind %v", msg.Kind)
	}
}

func saFromArgs(msg *pcu.Message) (*SA, error) {
	spiStr, ok := msg.Args["spi"]
	if !ok {
		return nil, fmt.Errorf("ipsec: register-instance requires spi=")
	}
	spi, err := strconv.ParseUint(spiStr, 0, 32)
	if err != nil {
		return nil, fmt.Errorf("ipsec: bad spi %q", spiStr)
	}
	local, err := pkt.ParseAddr(msg.Arg("local", ""))
	if err != nil {
		return nil, fmt.Errorf("ipsec: bad local address: %w", err)
	}
	peer, err := pkt.ParseAddr(msg.Arg("peer", ""))
	if err != nil {
		return nil, fmt.Errorf("ipsec: bad peer address: %w", err)
	}
	secret, err := hex.DecodeString(msg.Arg("secret", ""))
	if err != nil || len(secret) == 0 {
		return nil, fmt.Errorf("ipsec: secret= must be non-empty hex")
	}
	return NewSA(uint32(spi), local, peer, secret), nil
}

// Instance is one security-processing configuration.
type Instance struct {
	name    string
	slot    int
	encrypt bool
	ttl     uint8
}

// InstanceName implements pcu.Instance.
func (i *Instance) InstanceName() string { return i.name }

// HandlePacket implements pcu.Instance. On the encrypt side the matched
// flow's datagram is replaced by the ESP tunnel packet (the packet key
// is re-derived so routing forwards to the tunnel peer, while the FIX is
// preserved so downstream gates keep the inner flow's bindings, e.g.
// QoS). On the decrypt side the inner datagram replaces the tunnel
// packet and the FIX is cleared so the inner flow classifies afresh.
func (i *Instance) HandlePacket(p *pkt.Packet) error {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	if rec == nil {
		return fmt.Errorf("ipsec: packet carries no flow record")
	}
	b := rec.Bind(i.slot)
	if b.Rec == nil {
		return nil // flow reached the gate without an SA binding
	}
	sa, ok := b.Rec.Private.(*SA)
	if !ok || sa == nil {
		return fmt.Errorf("ipsec: binding has no SA")
	}
	if i.encrypt {
		out, err := sa.Seal(p.Data, i.ttl)
		if err != nil {
			p.MarkDrop("ipsec: " + err.Error())
			return nil
		}
		p.Data = out
		k, err := pkt.ExtractKey(out, p.InIf)
		if err != nil {
			return err
		}
		p.SetKey(k)
		return nil
	}
	inner, err := sa.Open(p.Data)
	if err != nil {
		p.MarkDrop("ipsec: " + err.Error())
		return nil
	}
	p.Data = inner
	k, err := pkt.ExtractKey(inner, p.InIf)
	if err != nil {
		return err
	}
	p.SetKey(k)
	p.FIX = nil // the inner flow classifies afresh at later gates
	return nil
}
