package plugins

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	Queue(slot uint32, gen uint64) (Q, bool)
	SetWeight(q Q, w float64)
	EnqueueFlow(q Q, p *pkt.Packet) error
	Dequeue() *pkt.Packet
	Len() int
	PurgeIdle() int
	Clear() int
	Each(fn func(slot uint32, gen uint64, q Q))
	SetTelemetry(m *telemetry.SchedMetrics)
}

// FlowSchedPlugin is a per-flow scheduling plugin (§6.1). Because the
// AIU already classifies packets into flows and numbers them — the flow
// record's slot, the paper's per-flow soft-state index — the plugin
// itself is small: each flow lazily receives its own queue (perfect
// per-flow fair queuing, not a fixed hash bucket like ALTQ), weighted
// by the reservation installed with the flow's filter. One type serves every
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
				flows: d.env.AIU.FlowTable(), s: d.newSched(quantum, qlen),
			}
			inst.s.SetTelemetry(d.env.Tel.SchedMetrics(d.name, inst.name))
			return inst, nil
		})
	case pcu.MsgFreeInstance:
		if err := freeSched[*FlowSchedInstance[Q, S]](d.env, msg); err != nil {
			return err
		}
		msg.Instance.(*FlowSchedInstance[Q, S]).clear()
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
		if msg.Verb == "purge-idle" {
			return reply(d.name, "purge-idle", msg, func(i *FlowSchedInstance[Q, S]) any { return i.PurgeIdle() })
		}
		return reply(d.name, "stats", msg, func(i *FlowSchedInstance[Q, S]) any { return i.Shares() })
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// FlowSchedInstance is one interface's per-flow scheduler. backlog
// mirrors the scheduler's length: it is stored under mu after every
// enqueue, dequeue, clear and purge, so Drain and Backlog answer an
// empty scheduler without the lock. A packet enqueued while a Drain
// runs is never stranded: its enqueue stores backlog before it returns,
// and the next Drain reads it.
type FlowSchedInstance[Q sched.PerFlowQueue, S flowScheduler[Q]] struct {
	outIf
	name  string
	slot  int
	flows *aiu.FlowTable

	backlog atomic.Int64
	mu      sync.Mutex
	s       S
}

// InstanceName implements pcu.Instance.
func (i *FlowSchedInstance[Q, S]) InstanceName() string { return i.name }

// errNoFlowRecord and errFlowGone are preallocated: HandlePacket runs
// per packet and must not allocate an error on the drop path.
var (
	errNoFlowRecord = errors.New("drr: packet carries no flow record")
	errFlowGone     = errors.New("drr: packet's flow was evicted and its slot reused")
)

// HandlePacket implements pcu.Instance: find (or claim) the flow's
// queue by its flow slot and enqueue. The paper keeps "a pointer to a
// queue of packets for each active flow" in the flow table row; here
// the row's slot indexes the instance's own queue slab, which is the
// same per-flow soft state without a pointer in the row.
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
	i.backlog.Store(int64(i.s.Len()))
	i.mu.Unlock()
	return err
}

// HandleBatch implements pcu.BatchHandler: the same per-packet enqueue
// as HandlePacket under one queue-mutex acquisition for the whole batch
// — the lock/unlock pair and its cache-line bounce amortize across the
// run. Each queued packet's slot is cleared (it is the queue's now);
// rejected packets (no flow record, full queue) stay in the slice,
// marked dropped.
//
//eisr:fastpath
func (i *FlowSchedInstance[Q, S]) HandleBatch(ps []*pkt.Packet) {
	//eisr:allow(fastpath) per-instance queue mutex, bounded critical section, never held across a plugin or channel boundary
	i.mu.Lock()
	for j, p := range ps {
		rec, _ := p.FIX.(*aiu.FlowRecord)
		if rec == nil || i.enqueue(rec, p) != nil {
			p.MarkDrop()
			continue
		}
		ps[j] = nil
	}
	i.backlog.Store(int64(i.s.Len()))
	i.mu.Unlock()
}

// enqueue queues p on its flow's queue, the slab entry of its flow
// slot. The flow's first packet claims the entry for the flow's
// generation — resetting what an evicted flow left there — and weights
// it by the reservation of the flow's filter, and so does its first
// packet after purge-idle released it. A packet whose flow has already
// lost its slot to a newer flow is refused. Called with i.mu held.
//
//eisr:fastpath
func (i *FlowSchedInstance[Q, S]) enqueue(rec *aiu.FlowRecord, p *pkt.Packet) error {
	q, fresh := i.s.Queue(rec.Slot(), p.FIXGen)
	var none Q
	if q == none {
		return errFlowGone
	}
	if fresh {
		if res := reservation(rec.Filter(i.slot)); res != nil {
			i.s.SetWeight(q, res.Weight)
		}
	}
	return i.s.EnqueueFlow(q, p)
}

// Drain implements ipcore.Drainer.
func (i *FlowSchedInstance[Q, S]) Drain() *pkt.Packet {
	if i.backlog.Load() == 0 {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	p := i.s.Dequeue()
	i.backlog.Store(int64(i.s.Len()))
	return p
}

// Backlog implements ipcore.Drainer.
func (i *FlowSchedInstance[Q, S]) Backlog() int { return int(i.backlog.Load()) }

// clear drops every queued packet as evicted when the instance is
// freed: nothing will drain it again.
func (i *FlowSchedInstance[Q, S]) clear() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.s.Clear()
	i.backlog.Store(int64(i.s.Len()))
}

// PurgeIdle reclaims every empty flow queue and reports how many.
func (i *FlowSchedInstance[Q, S]) PurgeIdle() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := i.s.PurgeIdle()
	i.backlog.Store(int64(i.s.Len()))
	return n
}

// FlowShare is one flow's service snapshot.
type FlowShare struct {
	// Label is the flow's key, read from the flow table and rendered by
	// Shares: a flow's first packet formats nothing.
	Label  string
	Weight float64
	Served uint64
	Drops  uint64
}

// Shares snapshots per-flow service for the link-sharing demos, in
// flow-slot order: one share per queue whose flow is still in the flow
// table.
func (i *FlowSchedInstance[Q, S]) Shares() []FlowShare {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []FlowShare
	i.s.Each(func(slot uint32, gen uint64, q Q) {
		if k, ok := i.flows.FlowAt(slot, gen); ok {
			h := q.Flow()
			out = append(out, FlowShare{Label: k.String(), Weight: h.Weight, Served: h.Served, Drops: h.Drops})
		}
	})
	return out
}
