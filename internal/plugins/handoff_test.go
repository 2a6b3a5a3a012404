package plugins

import (
	"testing"

	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// countRelease is a BufOwner that counts how often each packet is
// released.
type countRelease map[*pkt.Packet]int

func (c countRelease) ReleaseMbuf(p *pkt.Packet) { c[p]++ }

// TestREDRejectionsArePluginDrops: RED rejects by returning its verdict
// as an error, and the core counts every rejection as one plugin drop,
// releasing the packet once. RED's forced/early/full split is read from
// the errors HandlePacket returns on a twin instance with the same
// arguments and seed, which makes the same decisions packet by packet,
// and must agree with the bound instance's counters. The first
// configuration's average crosses maxth (forced and early drops); the
// second's queue fills before the average reaches minth (tail drops).
func TestREDRejectionsArePluginDrops(t *testing.T) {
	for _, tc := range []struct {
		args map[string]string
		want []error
	}{
		{map[string]string{"minth": "5", "maxth": "15", "qlen": "64", "wq": "0.2"}, []error{errREDForced, errREDEarly}},
		{map[string]string{"minth": "4", "maxth": "8", "qlen": "2", "wq": "0.01"}, []error{errREDFull}},
	} {
		rg := newRig(t)
		if err := rg.reg.Load(NewREDPlugin(rg.env)); err != nil {
			t.Fatal(err)
		}
		tc.args["iface"] = "1"
		inst := rg.create(t, "red", tc.args).(*REDInstance)
		rg.bind(t, "red", inst, map[string]string{"filter": "*, *, *, *, *, *"})
		twin := rg.create(t, "red", tc.args).(*REDInstance)
		rel := countRelease{}
		reasons := map[error]int{}
		rejected := 0
		for i := 0; i < 200; i++ {
			if err := twin.HandlePacket(udp(t, "10.0.0.1", 1, 100)); err != nil {
				reasons[err]++
			}
			p := udp(t, "10.0.0.1", 1, 100)
			p.Owner = rel
			if rg.r.Forward(p) {
				continue
			}
			rejected++
			if rel[p] != 1 {
				t.Fatalf("rejected packet released %d times", rel[p])
			}
		}
		for _, r := range tc.want {
			if reasons[r] == 0 {
				t.Fatalf("%v: reasons %v, want %q among them", tc.args, reasons, r)
			}
		}
		st := inst.Snapshot()
		forced, early, full := reasons[errREDForced], reasons[errREDEarly], reasons[errREDFull]
		if forced+early+full != rejected {
			t.Fatalf("reasons %v: the twin rejected %d, the core dropped %d", reasons, forced+early+full, rejected)
		}
		if uint64(forced+early) != st.EarlyDrops || uint64(full) != st.TailDrops {
			t.Fatalf("reasons %v disagree with RED's counters %+v", reasons, st)
		}
		cs := rg.r.Stats()
		if drops := uint64(rejected); cs.PluginDrops != drops || cs.Dropped != drops {
			t.Fatalf("core counted %d plugin drops, %d drops; RED rejected %d", cs.PluginDrops, cs.Dropped, drops)
		}
		if cs.SchedEnq != st.Enqueued {
			t.Fatalf("core counted %d scheduled, RED queued %d", cs.SchedEnq, st.Enqueued)
		}
	}
}

// TestHandleBatchContract: a scheduler's HandleBatch clears the slot of
// every packet it queues and leaves rejected ones in place, marked. The
// core then drops each rejected packet exactly once and never touches a
// queued one until it is transmitted.
func TestHandleBatchContract(t *testing.T) {
	for _, plugin := range schedPlugins {
		t.Run(plugin, func(t *testing.T) {
			rg := newRig(t)
			rg.loadSched(t)
			inst := rg.create(t, plugin, map[string]string{"iface": "1", "qlen": "4"})
			rg.bind(t, plugin, inst, map[string]string{"filter": "*, *, *, *, *, *"})
			bh := inst.(pcu.BatchHandler)

			// Direct: a walk gives the flow its record and queue; the
			// packet drained back out carries the flow index. Then a
			// batch of the same flow overflows the four-packet queue.
			drain := inst.(interface{ Drain() *pkt.Packet }).Drain
			if !rg.r.Forward(udp(t, "10.0.0.1", 1, 10)) {
				t.Fatal("first packet dropped")
			}
			first := drain()
			ps := make([]*pkt.Packet, 6)
			for i := range ps {
				ps[i] = udp(t, "10.0.0.1", 1, 10)
				ps[i].FIX, ps[i].FIXGen = first.FIX, first.FIXGen
			}
			orig := append([]*pkt.Packet(nil), ps...)
			bh.HandleBatch(ps)
			for i, p := range ps {
				switch {
				case i < 4 && p != nil:
					t.Errorf("slot %d: queued packet's slot not cleared", i)
				case i >= 4 && p != orig[i]:
					t.Errorf("slot %d: rejected packet not kept", i)
				case i >= 4 && !p.Drop:
					t.Errorf("slot %d: rejected packet not marked dropped", i)
				}
			}
			// The queue-full detail is the flow's own drop count.
			if sh := rg.shares(t, plugin, inst); len(sh) != 1 || sh[0].Drops != 2 {
				t.Errorf("shares %+v, want one flow with 2 drops", sh)
			}
			for drain() != nil {
			}

			// Through the walk: a vector of eight of one flow, four
			// queued and four dropped once each, with the core's
			// accounting matching.
			rel := countRelease{}
			before := rg.r.Stats()
			vec := make([]*pkt.Packet, 8)
			for i := range vec {
				vec[i] = udp(t, "10.0.0.1", 1, 10)
				vec[i].Owner = rel
			}
			all := append([]*pkt.Packet(nil), vec...)
			if got := rg.r.NewBatcher(8).ForwardBatch(vec); got != 4 {
				t.Fatalf("%d survived, want 4", got)
			}
			after := rg.r.Stats()
			if d := after.PluginDrops - before.PluginDrops; d != 4 {
				t.Fatalf("%d plugin drops, want 4", d)
			}
			if d := after.SchedEnq - before.SchedEnq; d != 4 {
				t.Fatalf("%d scheduled, want 4", d)
			}
			// Before transmit only the dropped packets are released, once
			// each; the queued ones are DRR's and are not read here.
			dropped := 0
			for i, p := range all {
				switch rel[p] {
				case 0:
				case 1:
					dropped++
					if !p.Drop {
						t.Fatalf("released packet %d not marked dropped", i)
					}
				default:
					t.Fatalf("packet %d released %d times before transmit", i, rel[p])
				}
			}
			if dropped != 4 {
				t.Fatalf("%d packets released before transmit, want the 4 dropped", dropped)
			}
			if sh := rg.shares(t, plugin, inst); len(sh) != 1 || sh[0].Drops != 2+4 {
				t.Fatalf("shares %+v, want one flow with 6 drops", sh)
			}
			for rg.r.TxDrain(1, 64) > 0 {
			}
			for i, p := range all {
				if rel[p] != 1 {
					t.Fatalf("packet %d released %d times after transmit, want 1", i, rel[p])
				}
			}
		})
	}
}
