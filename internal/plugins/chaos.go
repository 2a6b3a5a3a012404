package plugins

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// ChaosPlugin is the fault-injection plugin driving the isolation
// layer's tests and the chaos-soak CI job: its instances panic, error,
// or delay on a configurable schedule, so the router's panic barrier,
// health tracker, and quarantine path can be exercised with real
// in-dispatch faults rather than synthetic ones.
type ChaosPlugin struct {
	env   *Env
	gate  pcu.Type
	namer instanceNamer
}

// NewChaosPlugin builds a chaos plugin for a gate.
func NewChaosPlugin(env *Env, gate pcu.Type) *ChaosPlugin {
	return &ChaosPlugin{env: env, gate: gate, namer: instanceNamer{prefix: fmt.Sprintf("chaos-%s", gate)}}
}

// PluginName implements pcu.Plugin.
func (c *ChaosPlugin) PluginName() string { return fmt.Sprintf("chaos-%s", c.gate) }

// PluginCode implements pcu.Plugin; impl id 0xfffe marks the chaos
// implementation of a type (0xffff is the null plugin).
func (c *ChaosPlugin) PluginCode() pcu.Code { return pcu.MakeCode(c.gate, 0xfffe) }

// Chaos fault modes.
const (
	ChaosNone  = "none"  // behave like the null plugin
	ChaosPanic = "panic" // panic in HandlePacket
	ChaosError = "error" // return an error from HandlePacket
	ChaosDelay = "delay" // sleep in HandlePacket
)

// errChaos is mode=error's verdict, preallocated like every drop error.
var errChaos = errors.New("chaos: injected error")

// Callback implements pcu.Plugin. create-instance args:
//
//	mode=panic|error|delay|none   fault kind (default panic)
//	every=N                       fault on every Nth packet (default 1)
//	delay=DUR                     sleep length for mode=delay (default 1ms)
//
// Custom messages: "stats" reports call/fault counts; "panic" panics
// inside the control callback itself (exercising the control barrier).
func (c *ChaosPlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		mode := msg.Arg("mode", ChaosPanic)
		switch mode {
		case ChaosNone, ChaosPanic, ChaosError, ChaosDelay:
		default:
			return fmt.Errorf("plugins: chaos mode %q (want panic, error, delay, or none)", mode)
		}
		every, err := argInt(msg, "every", 1)
		if err != nil {
			return err
		}
		if every < 1 {
			return fmt.Errorf("plugins: chaos every=%d must be >= 1", every)
		}
		delay := time.Millisecond
		if s, ok := msg.Args["delay"]; ok {
			d, err := time.ParseDuration(s)
			if err != nil {
				return fmt.Errorf("plugins: bad delay=%q: %w", s, err)
			}
			delay = d
		}
		msg.Reply = &ChaosInstance{
			name: c.namer.next(), code: c.PluginCode(),
			mode: mode, every: uint64(every), delay: delay,
		}
		return nil
	case pcu.MsgFreeInstance:
		c.env.AIU.UnbindInstance(msg.Instance)
		return nil
	case pcu.MsgRegisterInstance:
		return register(c.env, c.gate, msg, nil)
	case pcu.MsgDeregisterInstance:
		return deregister(c.env, c.gate, msg)
	case pcu.MsgCustom:
		switch msg.Verb {
		case "stats":
			inst, ok := msg.Instance.(*ChaosInstance)
			if !ok {
				return fmt.Errorf("plugins: chaos stats needs an instance")
			}
			msg.Reply = map[string]uint64{
				"calls":  inst.calls.Load(),
				"faults": inst.faults.Load(),
			}
			return nil
		case "panic":
			panic("chaos: control-path panic requested")
		default:
			return fmt.Errorf("plugins: chaos plugin has no message %q", msg.Verb)
		}
	default:
		return fmt.Errorf("plugins: chaos plugin: unhandled message kind %v", msg.Kind)
	}
}

// ChaosInstance misbehaves on schedule. Counters are atomic: with
// several forwarding workers, each may dispatch through one instance
// concurrently.
type ChaosInstance struct {
	name  string
	code  pcu.Code
	mode  string
	every uint64
	delay time.Duration

	calls  atomic.Uint64
	faults atomic.Uint64
}

// InstanceName implements pcu.Instance.
func (i *ChaosInstance) InstanceName() string { return i.name }

// PluginCode lets the fault barrier attribute faults to the exact
// plugin code instead of the gate's generic code.
func (i *ChaosInstance) PluginCode() pcu.Code { return i.code }

// Calls reports handler invocations (tests).
func (i *ChaosInstance) Calls() uint64 { return i.calls.Load() }

// Faults reports injected faults (tests).
func (i *ChaosInstance) Faults() uint64 { return i.faults.Load() }

// HandlePacket implements pcu.Instance: every i.every-th call it
// injects the configured fault.
func (i *ChaosInstance) HandlePacket(p *pkt.Packet) error {
	n := i.calls.Add(1)
	if i.mode == ChaosNone || n%i.every != 0 {
		return nil
	}
	i.faults.Add(1)
	switch i.mode {
	case ChaosPanic:
		panic(fmt.Sprintf("chaos: injected panic (call %d)", n))
	case ChaosError:
		return errChaos
	case ChaosDelay:
		time.Sleep(i.delay)
	}
	return nil
}
