package plugins

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// REDPlugin implements Random Early Detection [Floyd & Jacobson 93] as a
// scheduling-type plugin (§4 lists "a plugin for congestion control
// mechanisms (e.g., RED)" among the envisioned types; it shares the
// scheduling gate, distinguished by its implementation id). An instance
// owns a FIFO output queue whose admission is governed by the RED
// average-queue estimator.
type REDPlugin struct {
	env   *Env
	namer instanceNamer
}

// NewREDPlugin builds the plugin.
func NewREDPlugin(env *Env) *REDPlugin {
	return &REDPlugin{env: env, namer: instanceNamer{prefix: "red"}}
}

// PluginName implements pcu.Plugin.
func (r *REDPlugin) PluginName() string { return "red" }

// PluginCode implements pcu.Plugin.
func (r *REDPlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeSched, 3) }

// Callback implements pcu.Plugin.
//
// create-instance args: iface=N, minth=PKTS (5), maxth=PKTS (15),
// maxp=PROB (0.1), wq=WEIGHT (0.2), qlen=PKTS (64), seed=N.
func (r *REDPlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		return createSched(r.env, msg, func(ifIdx int32) (schedInstance, error) {
			minth, err := argInt(msg, "minth", 5)
			if err != nil {
				return nil, err
			}
			maxth, err := argInt(msg, "maxth", 15)
			if err != nil {
				return nil, err
			}
			maxp, err := argFloat(msg, "maxp", 0.1)
			if err != nil {
				return nil, err
			}
			wq, err := argFloat(msg, "wq", 0.2)
			if err != nil {
				return nil, err
			}
			qlen, err := argInt(msg, "qlen", 64)
			if err != nil {
				return nil, err
			}
			seed, err := argInt(msg, "seed", 1)
			if err != nil {
				return nil, err
			}
			if minth >= maxth {
				return nil, fmt.Errorf("plugins: red requires minth < maxth")
			}
			return &REDInstance{
				outIf: outIf{ifIdx}, name: r.namer.next(),
				minth: float64(minth), maxth: float64(maxth), maxp: maxp, wq: wq,
				fifo: sched.NewFIFO(qlen), rng: rand.New(rand.NewSource(int64(seed))),
			}, nil
		})
	case pcu.MsgFreeInstance:
		return freeSched[*REDInstance](r.env, msg)
	case pcu.MsgRegisterInstance:
		return register(r.env, pcu.TypeSched, msg, nil)
	case pcu.MsgDeregisterInstance:
		return deregister(r.env, pcu.TypeSched, msg)
	case pcu.MsgCustom:
		if msg.Verb == "stats" {
			inst, ok := msg.Instance.(*REDInstance)
			if !ok {
				return fmt.Errorf("plugins: stats needs an instance")
			}
			msg.Reply = inst.Snapshot()
			return nil
		}
		return fmt.Errorf("plugins: red has no message %q", msg.Verb)
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// RED's verdicts on a packet it does not queue. Preallocated: the
// early-drop arm runs per packet under congestion.
var (
	errREDForced = errors.New("red: forced drop")
	errREDEarly  = errors.New("red: early drop")
	errREDFull   = errors.New("red: queue full")
)

// REDInstance is one interface's RED queue.
type REDInstance struct {
	outIf
	name string

	mu    sync.Mutex
	fifo  *sched.FIFO
	avg   float64
	count int // packets since last drop
	rng   *rand.Rand

	minth, maxth, maxp, wq float64

	// REDStats fields.
	enq, earlyDrops, tailDrops uint64
}

// REDStats is the instance's counters.
type REDStats struct {
	Enqueued   uint64
	EarlyDrops uint64
	TailDrops  uint64
	AvgQueue   float64
}

// InstanceName implements pcu.Instance.
func (i *REDInstance) InstanceName() string { return i.name }

// HandlePacket implements pcu.Instance: the RED admission test followed
// by FIFO enqueue. A nil return means the packet is queued and no
// longer the caller's; a rejected packet comes back as an error.
func (i *REDInstance) HandlePacket(p *pkt.Packet) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	q := float64(i.fifo.Len())
	// EWMA of instantaneous queue length.
	i.avg = (1-i.wq)*i.avg + i.wq*q
	switch {
	case i.avg >= i.maxth:
		i.earlyDrops++
		i.count = 0
		return errREDForced
	case i.avg >= i.minth:
		pb := i.maxp * (i.avg - i.minth) / (i.maxth - i.minth)
		pa := pb / (1 - float64(i.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		i.count++
		if i.rng.Float64() < pa {
			i.earlyDrops++
			i.count = 0
			return errREDEarly
		}
	default:
		i.count = 0
	}
	if err := i.fifo.Enqueue(p); err != nil {
		i.tailDrops++
		return errREDFull
	}
	i.enq++
	return nil
}

// Drain implements ipcore.Drainer.
func (i *REDInstance) Drain() *pkt.Packet {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fifo.Dequeue()
}

// Backlog implements ipcore.Drainer.
func (i *REDInstance) Backlog() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fifo.Len()
}

// Snapshot returns the counters.
func (i *REDInstance) Snapshot() REDStats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return REDStats{Enqueued: i.enq, EarlyDrops: i.earlyDrops, TailDrops: i.tailDrops, AvgQueue: i.avg}
}
