package plugins

import (
	"errors"
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// flowScheduler is the discipline behind a per-flow scheduling plugin,
// with Q its flow queue type. *sched.DRR and *sched.Eiffel satisfy it
// as they are.
type flowScheduler[Q sched.PerFlowQueue] interface {
	NewQueue(weight float64) Q
	EnqueueFlow(q Q, p *pkt.Packet) error
	Dequeue() *pkt.Packet
	Len() int
	RemoveQueue(q Q)
	PurgeIdle() int
	Queues() []Q
	SetTelemetry(m *telemetry.SchedMetrics)
}

// FlowSchedPlugin is a per-flow scheduling plugin (§6.1). Because the
// AIU already classifies packets into flows and gives the plugin a
// per-flow soft-state slot in the flow record, the plugin itself is
// small: each flow lazily receives its own queue (perfect per-flow fair
// queuing, not a fixed hash bucket like ALTQ), weighted by the
// reservation installed with the flow's filter. One type serves every
// per-flow discipline: "drr", weighted Deficit Round Robin, and
// "eiffel", the FFS-indexed bucket wheel that scales to a million live
// flows.
type FlowSchedPlugin[Q sched.PerFlowQueue, S flowScheduler[Q]] struct {
	env      *Env
	name     string
	code     pcu.Code
	newSched func(quantum, perQueueLimit int) S
	namer    instanceNamer
}

// DRRInstance is one interface's DRR scheduler.
type DRRInstance = FlowSchedInstance[*sched.DRRQueue, *sched.DRR]

// NewDRRPlugin builds the DRR plugin (sched/1).
func NewDRRPlugin(env *Env) *FlowSchedPlugin[*sched.DRRQueue, *sched.DRR] {
	return newFlowSchedPlugin[*sched.DRRQueue](env, "drr", 1, sched.NewDRR)
}

// NewEiffelPlugin builds the Eiffel plugin (sched/4).
func NewEiffelPlugin(env *Env) *FlowSchedPlugin[*sched.EiffelQueue, *sched.Eiffel] {
	return newFlowSchedPlugin[*sched.EiffelQueue](env, "eiffel", 4, sched.NewEiffel)
}

func newFlowSchedPlugin[Q sched.PerFlowQueue, S flowScheduler[Q]](env *Env, name string, impl uint16, newSched func(int, int) S) *FlowSchedPlugin[Q, S] {
	return &FlowSchedPlugin[Q, S]{
		env: env, name: name, code: pcu.MakeCode(pcu.TypeSched, impl),
		newSched: newSched, namer: instanceNamer{prefix: name},
	}
}

// PluginName implements pcu.Plugin.
func (d *FlowSchedPlugin[Q, S]) PluginName() string { return d.name }

// PluginCode implements pcu.Plugin.
func (d *FlowSchedPlugin[Q, S]) PluginCode() pcu.Code { return d.code }

// Callback implements pcu.Plugin.
//
// create-instance args: iface=N (required), quantum=BYTES, qlen=PKTS.
// register-instance args: filter=SPEC, weight=W (reserved flows).
// Custom messages: "stats" replies with a []FlowShare snapshot;
// "purge-idle" reclaims empty flow queues and replies with the count.
func (d *FlowSchedPlugin[Q, S]) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		return createSched(d.env, msg, func(ifIdx int32) (schedInstance, error) {
			quantum, err := argInt(msg, "quantum", 1500)
			if err != nil {
				return nil, err
			}
			qlen, err := argInt(msg, "qlen", 128)
			if err != nil {
				return nil, err
			}
			slot, err := schedSlot(d.env)
			if err != nil {
				return nil, err
			}
			inst := &FlowSchedInstance[Q, S]{
				outIf: outIf{ifIdx}, name: d.namer.next(), slot: slot,
				s: d.newSched(quantum, qlen),
			}
			inst.s.SetTelemetry(d.env.Tel.SchedMetrics(d.name, inst.name))
			return inst, nil
		})
	case pcu.MsgFreeInstance:
		return freeSched[*FlowSchedInstance[Q, S]](d.env, msg)
	case pcu.MsgRegisterInstance:
		w, err := argFloat(msg, "weight", 1)
		if err != nil {
			return err
		}
		return register(d.env, pcu.TypeSched, msg, &Reservation{Weight: w})
	case pcu.MsgDeregisterInstance:
		return deregister(d.env, pcu.TypeSched, msg)
	case pcu.MsgCustom:
		if msg.Verb != "stats" && msg.Verb != "purge-idle" {
			return fmt.Errorf("plugins: %s has no message %q", d.name, msg.Verb)
		}
		inst, ok := msg.Instance.(*FlowSchedInstance[Q, S])
		if !ok {
			return fmt.Errorf("plugins: %s needs an instance", msg.Verb)
		}
		if msg.Verb == "stats" {
			msg.Reply = inst.Shares()
		} else {
			msg.Reply = inst.PurgeIdle()
		}
		return nil
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// FlowSchedInstance is one interface's per-flow scheduler.
type FlowSchedInstance[Q sched.PerFlowQueue, S flowScheduler[Q]] struct {
	outIf
	name string
	slot int

	mu sync.Mutex
	s  S
}

// InstanceName implements pcu.Instance.
func (i *FlowSchedInstance[Q, S]) InstanceName() string { return i.name }

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
func (i *FlowSchedInstance[Q, S]) HandlePacket(p *pkt.Packet) error {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	if rec == nil {
		return errNoFlowRecord
	}
	//eisr:allow(fastpath) per-instance queue mutex, bounded critical section, never held across a plugin or channel boundary
	i.mu.Lock()
	err := i.enqueue(rec, p)
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
func (i *FlowSchedInstance[Q, S]) HandleBatch(ps []*pkt.Packet) {
	//eisr:allow(fastpath) per-instance queue mutex, bounded critical section, never held across a plugin or channel boundary
	i.mu.Lock()
	for j, p := range ps {
		rec, _ := p.FIX.(*aiu.FlowRecord)
		if rec == nil {
			p.MarkDrop(errNoFlowRecord.Error())
			continue
		}
		if err := i.enqueue(rec, p); err != nil {
			p.MarkDrop(err.Error())
			continue
		}
		ps[j] = nil
	}
	i.mu.Unlock()
}

// enqueue queues p on its flow's queue, which lives in the flow
// record's soft-state slot. The flow's first packet creates the queue,
// and so does its first packet after purge-idle reclaimed it (the
// scheduler then disowns the queue the slot still points at). Called
// with i.mu held.
//
//eisr:fastpath
func (i *FlowSchedInstance[Q, S]) enqueue(rec *aiu.FlowRecord, p *pkt.Packet) error {
	b := rec.Bind(i.slot)
	q, ok := b.Private.(Q)
	if !ok {
		q = i.newFlowQueue(rec, b)
	}
	err := i.s.EnqueueFlow(q, p)
	if err == sched.ErrForeignQueue {
		err = i.s.EnqueueFlow(i.newFlowQueue(rec, b), p)
	}
	return err
}

// newFlowQueue creates the flow's queue — the once-per-flow slow path —
// weighted by the filter's reservation.
//
//eisr:slowpath
func (i *FlowSchedInstance[Q, S]) newFlowQueue(rec *aiu.FlowRecord, b *aiu.GateBind) Q {
	weight := 1.0
	if b.Rec != nil {
		if res, ok := b.Rec.Private.(*Reservation); ok && res.Weight > 0 {
			weight = res.Weight
		}
	}
	q := i.s.NewQueue(weight)
	q.Flow().Key = rec.Key
	b.Private = q
	return q
}

// Drain implements ipcore.Drainer.
func (i *FlowSchedInstance[Q, S]) Drain() *pkt.Packet {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.s.Dequeue()
}

// Backlog implements ipcore.Drainer.
func (i *FlowSchedInstance[Q, S]) Backlog() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.s.Len()
}

// FlowEvicted implements aiu.FlowEvictListener: reclaim the per-flow
// queue when the AIU recycles the flow record. The evicted key and slot
// contents arrive by value because the callback is delivered after the
// table lock is dropped, by which point the record may already serve a
// new flow.
func (i *FlowSchedInstance[Q, S]) FlowEvicted(key pkt.Key, slot int, b aiu.GateBind) {
	q, ok := b.Private.(Q)
	if !ok {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.s.RemoveQueue(q)
}

// PurgeIdle reclaims every empty flow queue and reports how many.
func (i *FlowSchedInstance[Q, S]) PurgeIdle() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.s.PurgeIdle()
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
// the order of the scheduler's Queues.
func (i *FlowSchedInstance[Q, S]) Shares() []FlowShare {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []FlowShare
	for _, q := range i.s.Queues() {
		h := q.Flow()
		out = append(out, FlowShare{Label: h.Key.String(), Weight: h.Weight, Served: h.Served, Drops: h.Drops})
	}
	return out
}
