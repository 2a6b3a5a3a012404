package plugins

import (
	"errors"
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// DRRPlugin is the weighted Deficit Round Robin scheduling plugin of
// §6.1. Because the AIU already classifies packets into flows and gives
// the plugin a per-flow soft-state slot in the flow record, the plugin
// itself is small: each flow lazily receives its own queue (perfect
// per-flow fair queuing, not a fixed hash bucket like ALTQ), weighted by
// the reservation installed with the flow's filter.
type DRRPlugin struct {
	env   *Env
	namer instanceNamer
}

// NewDRRPlugin builds the plugin.
func NewDRRPlugin(env *Env) *DRRPlugin {
	return &DRRPlugin{env: env, namer: instanceNamer{prefix: "drr"}}
}

// PluginName implements pcu.Plugin.
func (d *DRRPlugin) PluginName() string { return "drr" }

// PluginCode implements pcu.Plugin.
func (d *DRRPlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeSched, 1) }

// Callback implements pcu.Plugin.
//
// create-instance args: iface=N (required), quantum=BYTES, qlen=PKTS.
// register-instance args: filter=SPEC, weight=W (reserved flows).
// Custom messages: "stats" replies with a []FlowShare snapshot.
func (d *DRRPlugin) Callback(msg *pcu.Message) error {
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
		inst := &DRRInstance{
			name: d.namer.next(), env: d.env, ifIdx: ifIdx,
			drr: sched.NewDRR(quantum, qlen),
		}
		inst.drr.Tel = d.env.Tel.SchedMetrics("drr", inst.name)
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
		inst, ok := msg.Instance.(*DRRInstance)
		if !ok {
			return fmt.Errorf("plugins: not a DRR instance")
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
			inst, ok := msg.Instance.(*DRRInstance)
			if !ok {
				return fmt.Errorf("plugins: stats needs an instance")
			}
			msg.Reply = inst.Shares()
			return nil
		}
		return fmt.Errorf("plugins: drr has no message %q", msg.Verb)
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// DRRInstance is one interface's DRR scheduler.
type DRRInstance struct {
	name  string
	env   *Env
	ifIdx int32
	slot  int

	mu  sync.Mutex
	drr *sched.DRR
}

// InstanceName implements pcu.Instance.
func (i *DRRInstance) InstanceName() string { return i.name }

// IfIndex reports the interface this instance schedules.
func (i *DRRInstance) IfIndex() int32 { return i.ifIdx }

// errNoFlowRecord is preallocated: HandlePacket runs per packet and must
// not allocate an error on the drop path.
var errNoFlowRecord = errors.New("drr: packet carries no flow record")

// HandlePacket implements pcu.Instance: find (or create) the flow's
// queue via the flow record's soft-state slot and enqueue. The per-flow
// queue pointer lives exactly where the paper puts it — in the flow
// table row ("used by the DRR plugin to store a pointer to a queue of
// packets for each active flow").
//
//eisr:fastpath
func (i *DRRInstance) HandlePacket(p *pkt.Packet) error {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	if rec == nil {
		return errNoFlowRecord
	}
	b := rec.Bind(i.slot)
	q, _ := b.Private.(*sched.DRRQueue)
	//eisr:allow(fastpath) per-instance queue mutex, bounded critical section, never held across a plugin or channel boundary
	i.mu.Lock()
	if q == nil {
		q = i.newFlowQueue(rec, b)
	}
	err := i.drr.EnqueueFlow(q, p)
	i.mu.Unlock()
	return err
}

// HandleBatch implements pcu.BatchHandler: the same per-packet enqueue
// as HandlePacket under one queue-mutex acquisition for the whole batch
// — the lock/unlock pair and its cache-line bounce amortize across the
// run. Each queued packet's slot is cleared (it is the queue's now);
// rejected packets (no flow record, full queue) stay in the slice,
// marked with the same preallocated reasons the scalar path returns as
// errors.
//
//eisr:fastpath
func (i *DRRInstance) HandleBatch(ps []*pkt.Packet) {
	//eisr:allow(fastpath) per-instance queue mutex, bounded critical section, never held across a plugin or channel boundary
	i.mu.Lock()
	for j, p := range ps {
		rec, _ := p.FIX.(*aiu.FlowRecord)
		if rec == nil {
			p.MarkDrop(errNoFlowRecord.Error())
			continue
		}
		b := rec.Bind(i.slot)
		q, _ := b.Private.(*sched.DRRQueue)
		if q == nil {
			q = i.newFlowQueue(rec, b)
		}
		if err := i.drr.EnqueueFlow(q, p); err != nil {
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
func (i *DRRInstance) newFlowQueue(rec *aiu.FlowRecord, b *aiu.GateBind) *sched.DRRQueue {
	weight := 1.0
	if b.Rec != nil {
		if res, ok := b.Rec.Private.(*Reservation); ok && res.Weight > 0 {
			weight = res.Weight
		}
	}
	q := i.drr.NewQueue("", weight)
	q.Key = rec.Key
	b.Private = q
	return q
}

// Drain implements ipcore.Drainer.
func (i *DRRInstance) Drain() *pkt.Packet {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.drr.Dequeue()
}

// Backlog implements ipcore.Drainer.
func (i *DRRInstance) Backlog() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.drr.Len()
}

// FlowEvicted implements aiu.FlowEvictListener: reclaim the per-flow
// queue when the AIU recycles the flow record. The evicted key and slot
// contents arrive by value because the callback is delivered after the
// table lock is dropped, by which point the record may already serve a
// new flow.
func (i *DRRInstance) FlowEvicted(key pkt.Key, slot int, b aiu.GateBind) {
	q, _ := b.Private.(*sched.DRRQueue)
	if q == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.drr.RemoveQueue(q)
}

// FlowShare is one flow's service snapshot.
type FlowShare struct {
	// Label is the flow's key, rendered by Shares: flow creation keeps
	// the key and formats nothing.
	Label  string
	Weight float64
	Served uint64
	Drops  uint64
}

// Shares snapshots per-flow service for the link-sharing demos, in
// the order of DRR.Queues.
func (i *DRRInstance) Shares() []FlowShare {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []FlowShare
	for _, q := range i.drr.Queues() {
		out = append(out, FlowShare{Label: q.Key.String(), Weight: q.Weight, Served: q.Served, Drops: q.Drops})
	}
	return out
}

// Scheduler exposes the underlying DRR for simulators.
func (i *DRRInstance) Scheduler() *sched.DRR { return i.drr }
