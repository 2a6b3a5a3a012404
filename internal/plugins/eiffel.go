package plugins

import (
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// EiffelPlugin is the million-flow scheduling plugin: the FFS-indexed
// bucket-wheel scheduler of internal/sched's Eiffel behind the same
// plugin surface as DRR. Flows get their per-flow queue lazily through
// the scheduling gate's soft-state slot; weights come from the
// reservation installed with the flow's filter. Eiffel's intrusive
// packet chaining keeps per-flow state to one small header with no
// packet array, so the same plugin verbs scale to a million live flows.
type EiffelPlugin struct {
	env   *Env
	namer instanceNamer
}

// NewEiffelPlugin builds the plugin.
func NewEiffelPlugin(env *Env) *EiffelPlugin {
	return &EiffelPlugin{env: env, namer: instanceNamer{prefix: "eiffel"}}
}

// PluginName implements pcu.Plugin.
func (d *EiffelPlugin) PluginName() string { return "eiffel" }

// PluginCode implements pcu.Plugin.
func (d *EiffelPlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeSched, 4) }

// Callback implements pcu.Plugin.
//
// create-instance args: iface=N (required), quantum=BYTES, qlen=PKTS.
// register-instance args: filter=SPEC, weight=W (reserved flows).
// Custom messages: "stats" replies with a []FlowShare snapshot;
// "purge-idle" reclaims empty flow queues and replies with the count.
func (d *EiffelPlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		ifIdx, err := argIf(msg)
		if err != nil {
			return err
		}
		quantum, err := argInt(msg, "quantum", 1500)
		if err != nil {
			return err
		}
		qlen, err := argInt(msg, "qlen", 128)
		if err != nil {
			return err
		}
		inst := &EiffelInstance{
			name: d.namer.next(), env: d.env, ifIdx: ifIdx,
			eif: sched.NewEiffel(quantum, qlen),
		}
		inst.eif.Tel = d.env.Tel.SchedMetrics("eiffel", inst.name)
		if slot, ok := d.env.AIU.Slot(pcu.TypeSched); ok {
			inst.slot = slot
		} else {
			return fmt.Errorf("plugins: AIU has no scheduling gate")
		}
		if d.env.Router != nil {
			d.env.Router.RegisterDrainer(ifIdx, inst)
		}
		msg.Reply = inst
		return nil
	case pcu.MsgFreeInstance:
		inst, ok := msg.Instance.(*EiffelInstance)
		if !ok {
			return fmt.Errorf("plugins: not an Eiffel instance")
		}
		if d.env.Router != nil {
			d.env.Router.UnregisterDrainer(inst.ifIdx, inst)
		}
		d.env.AIU.UnbindInstance(inst)
		return nil
	case pcu.MsgRegisterInstance:
		w, err := argFloat(msg, "weight", 1)
		if err != nil {
			return err
		}
		return register(d.env, pcu.TypeSched, msg, &Reservation{Weight: w})
	case pcu.MsgDeregisterInstance:
		return deregister(d.env, pcu.TypeSched, msg)
	case pcu.MsgCustom:
		switch msg.Verb {
		case "stats":
			inst, ok := msg.Instance.(*EiffelInstance)
			if !ok {
				return fmt.Errorf("plugins: stats needs an instance")
			}
			msg.Reply = inst.Shares()
			return nil
		case "purge-idle":
			inst, ok := msg.Instance.(*EiffelInstance)
			if !ok {
				return fmt.Errorf("plugins: purge-idle needs an instance")
			}
			msg.Reply = inst.PurgeIdle()
			return nil
		}
		return fmt.Errorf("plugins: eiffel has no message %q", msg.Verb)
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// EiffelInstance is one interface's Eiffel scheduler.
type EiffelInstance struct {
	name  string
	env   *Env
	ifIdx int32
	slot  int

	mu  sync.Mutex
	eif *sched.Eiffel
}

// InstanceName implements pcu.Instance.
func (i *EiffelInstance) InstanceName() string { return i.name }

// IfIndex reports the interface this instance schedules.
func (i *EiffelInstance) IfIndex() int32 { return i.ifIdx }

// HandlePacket implements pcu.Instance: find (or create) the flow's
// queue via the flow record's soft-state slot and enqueue, exactly as
// the DRR plugin does — the two disciplines are interchangeable behind
// the scheduling gate.
//
//eisr:fastpath
func (i *EiffelInstance) HandlePacket(p *pkt.Packet) error {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	if rec == nil {
		return errNoFlowRecord
	}
	b := rec.Bind(i.slot)
	q, _ := b.Private.(*sched.EiffelQueue)
	//eisr:allow(fastpath) per-instance queue mutex, bounded critical section, never held across a plugin or channel boundary
	i.mu.Lock()
	if q == nil {
		q = i.newFlowQueue(rec, b)
	}
	err := i.eif.EnqueueFlow(q, p)
	i.mu.Unlock()
	return err
}

// HandleBatch implements pcu.BatchHandler: the per-packet enqueue under
// one queue-mutex acquisition for the whole batch. Each queued packet's
// slot is cleared; rejected packets stay in the slice, marked with the
// same preallocated reasons the scalar path returns as errors.
//
//eisr:fastpath
func (i *EiffelInstance) HandleBatch(ps []*pkt.Packet) {
	//eisr:allow(fastpath) per-instance queue mutex, bounded critical section, never held across a plugin or channel boundary
	i.mu.Lock()
	for j, p := range ps {
		rec, _ := p.FIX.(*aiu.FlowRecord)
		if rec == nil {
			p.MarkDrop(errNoFlowRecord.Error())
			continue
		}
		b := rec.Bind(i.slot)
		q, _ := b.Private.(*sched.EiffelQueue)
		if q == nil {
			q = i.newFlowQueue(rec, b)
		}
		if err := i.eif.EnqueueFlow(q, p); err != nil {
			p.MarkDrop(err.Error())
			continue
		}
		ps[j] = nil
	}
	i.mu.Unlock()
}

// newFlowQueue lazily creates the flow's queue on its first packet — the
// once-per-flow slow path. Called with i.mu held.
//
//eisr:slowpath
func (i *EiffelInstance) newFlowQueue(rec *aiu.FlowRecord, b *aiu.GateBind) *sched.EiffelQueue {
	weight := 1.0
	if b.Rec != nil {
		if res, ok := b.Rec.Private.(*Reservation); ok && res.Weight > 0 {
			weight = res.Weight
		}
	}
	q := i.eif.NewQueue(weight)
	q.Key = rec.Key
	b.Private = q
	return q
}

// Drain implements ipcore.Drainer.
func (i *EiffelInstance) Drain() *pkt.Packet {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.eif.Dequeue()
}

// Backlog implements ipcore.Drainer.
func (i *EiffelInstance) Backlog() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.eif.Len()
}

// FlowEvicted implements aiu.FlowEvictListener: reclaim the per-flow
// queue when the AIU recycles the flow record.
func (i *EiffelInstance) FlowEvicted(key pkt.Key, slot int, b aiu.GateBind) {
	q, _ := b.Private.(*sched.EiffelQueue)
	if q == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.eif.RemoveQueue(q)
}

// PurgeIdle reclaims every empty flow queue and reports how many.
func (i *EiffelInstance) PurgeIdle() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.eif.PurgeIdle()
}

// Shares snapshots per-flow service for the link-sharing demos.
func (i *EiffelInstance) Shares() []FlowShare {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []FlowShare
	for _, q := range i.eif.Queues() {
		out = append(out, FlowShare{Label: q.Key.String(), Weight: q.Weight, Served: q.Served, Drops: q.Drops})
	}
	return out
}

// Scheduler exposes the underlying Eiffel for simulators.
func (i *EiffelInstance) Scheduler() *sched.Eiffel { return i.eif }
