package plugins

import (
	"fmt"
	"sync"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/sched"
)

// TCPMonPlugin is "a plugin monitoring TCP congestion backoff behaviour"
// (§4). It keeps per-flow soft state — highest sequence seen,
// retransmission count, duplicate-ACK runs — in a slab indexed by the
// flow record's slot, so it is bounded by the flow table and reset when
// a record is recycled, and flags flows that do not appear to back off
// (sequence keeps advancing at full tilt through loss episodes).
type TCPMonPlugin struct {
	env   *Env
	namer instanceNamer
}

// NewTCPMonPlugin builds the plugin.
func NewTCPMonPlugin(env *Env) *TCPMonPlugin {
	return &TCPMonPlugin{env: env, namer: instanceNamer{prefix: "tcpmon"}}
}

// PluginName implements pcu.Plugin.
func (t *TCPMonPlugin) PluginName() string { return "tcpmon" }

// PluginCode implements pcu.Plugin.
func (t *TCPMonPlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeMonitor, 1) }

// Callback implements pcu.Plugin.
func (t *TCPMonPlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		inst := &TCPMonInstance{name: t.namer.next(), flows: t.env.AIU.FlowTable()}
		msg.Reply = inst
		return nil
	case pcu.MsgFreeInstance:
		t.env.AIU.UnbindInstance(msg.Instance)
		return nil
	case pcu.MsgRegisterInstance:
		return register(t.env, pcu.TypeMonitor, msg, nil)
	case pcu.MsgDeregisterInstance:
		return deregister(t.env, pcu.TypeMonitor, msg)
	case pcu.MsgCustom:
		return reply("tcpmon", "report", msg, func(i *TCPMonInstance) any { return i.Report() })
	default:
		return fmt.Errorf("plugins: unhandled message kind %v", msg.Kind)
	}
}

// TCPFlowState is the monitor's per-flow soft state.
type TCPFlowState struct {
	HighSeq uint32
	Packets uint64
	Retrans uint64
	Syns    uint64
	Fins    uint64
	LastAck uint32
	DupAcks uint64
}

// TCPMonInstance watches TCP flows.
type TCPMonInstance struct {
	name  string
	flows *aiu.FlowTable

	mu     sync.Mutex
	states sched.Slab[TCPFlowState]
}

// InstanceName implements pcu.Instance.
func (i *TCPMonInstance) InstanceName() string { return i.name }

// HandlePacket implements pcu.Instance. A packet without a flow record,
// or whose flow has already lost its slot to a newer flow, is not
// counted.
func (i *TCPMonInstance) HandlePacket(p *pkt.Packet) error {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	if rec == nil || p.Key.Proto != pkt.ProtoTCP {
		return nil
	}
	var l4 []byte
	switch p.Version() {
	case 4:
		h, err := pkt.ParseIPv4(p.Data)
		if err != nil {
			return err
		}
		l4 = p.Data[h.HeaderLen():]
	case 6:
		l4 = p.Data[pkt.IPv6HeaderLen:]
	default:
		return nil
	}
	th, err := pkt.ParseTCP(l4)
	if err != nil {
		return err
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	st, fresh := i.states.Get(rec.Slot(), p.FIXGen)
	if st == nil {
		return nil
	}
	if fresh {
		*st = TCPFlowState{}
	}
	st.Packets++
	if th.Flags&pkt.TCPSyn != 0 {
		st.Syns++
	}
	if th.Flags&pkt.TCPFin != 0 {
		st.Fins++
	}
	if th.Flags&pkt.TCPAck != 0 {
		if th.Ack == st.LastAck {
			st.DupAcks++
		}
		st.LastAck = th.Ack
	}
	if st.Packets > 1 && th.Seq != 0 && seqLEQ(th.Seq, st.HighSeq) {
		st.Retrans++
	}
	if seqGT(th.Seq, st.HighSeq) {
		st.HighSeq = th.Seq
	}
	return nil
}

// seqGT compares TCP sequence numbers mod 2^32.
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// TCPFlowReport pairs a flow with its state.
type TCPFlowReport struct {
	Key pkt.Key
	TCPFlowState
}

// Report snapshots the tracked flows still in the flow table, in
// flow-slot order.
func (i *TCPMonInstance) Report() []TCPFlowReport {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []TCPFlowReport
	i.states.Each(func(slot uint32, gen uint64, st *TCPFlowState) bool {
		if k, ok := i.flows.FlowAt(slot, gen); ok {
			out = append(out, TCPFlowReport{Key: k, TCPFlowState: *st})
		}
		return false
	})
	return out
}
