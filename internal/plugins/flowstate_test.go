package plugins

import (
	"sync"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
)

// tcpPacket builds one TCP segment of the flow from src:sport.
func tcpPacket(t testing.TB, src uint32, sport uint16, seq uint32) *pkt.Packet {
	t.Helper()
	data, err := pkt.BuildTCP(pkt.TCPSpec{
		Src: pkt.AddrV4(src), Dst: pkt.MustParseAddr("20.0.0.1"),
		SrcPort: sport, DstPort: 80, Seq: seq, Flags: pkt.TCPAck, Payload: []byte("seg"),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Stamp = time.Now()
	return p
}

// TestTCPMonStateBoundedByFlowTable: a scan of twice the flow table's
// capacity in distinct TCP flows leaves at most one tracked state per
// flow record, and the report lists exactly the flows still in the
// table.
func TestTCPMonStateBoundedByFlowTable(t *testing.T) {
	gates := []pcu.Type{pcu.TypeMonitor, pcu.TypeRouting, pcu.TypeSched}
	rg := newRig(t, gates...)
	rg.reg.Load(NewTCPMonPlugin(rg.env))
	inst := rg.create(t, "tcpmon", nil).(*TCPMonInstance)
	rg.bind(t, "tcpmon", inst, map[string]string{"filter": "*, *, TCP, *, *, *"})
	ft := rg.a.FlowTable()
	const capacity = 1024 // the rig's MaxFlows
	for i := 0; i < 2*capacity; i++ {
		rg.r.ProcessOne(tcpPacket(t, 0x0a000000+uint32(i), 1000, 1))
	}
	st := ft.Stats()
	if st.Recycled == 0 {
		t.Fatalf("no flow record recycled: %+v", st)
	}
	if n := inst.states.Owned(); n > st.Alloc || n > capacity {
		t.Errorf("%d tracked states for a table of %d records", n, st.Alloc)
	}
	rep := inst.Report()
	if len(rep) != st.Live {
		t.Errorf("report lists %d flows, the table holds %d", len(rep), st.Live)
	}
	for _, r := range rep {
		if ft.Lookup(r.Key, time.Now(), nil) == nil {
			t.Errorf("report lists %v, which left the table", r.Key)
		}
		if r.Packets != 1 {
			t.Errorf("%v: %d packets, want its own 1", r.Key, r.Packets)
		}
	}
}

// TestTCPMonRecycleRace handles packets through tcpmon while their flow
// records are recycled for other flows and flushed (run with -race): the
// monitor's state lives in its own slab under its own mutex, so nothing
// it writes is read under a flow-table lock.
func TestTCPMonRecycleRace(t *testing.T) {
	a := aiu.New(aiu.Config{InitialFlows: 8, MaxFlows: 16, FlowShards: 1}, pcu.TypeMonitor)
	env := &Env{AIU: a}
	reg := pcu.NewRegistry()
	if err := reg.Load(NewTCPMonPlugin(env)); err != nil {
		t.Fatal(err)
	}
	msg := &pcu.Message{Kind: pcu.MsgCreateInstance}
	if err := reg.Send("tcpmon", msg); err != nil {
		t.Fatal(err)
	}
	inst := msg.Reply.(*TCPMonInstance)
	if err := reg.Send("tcpmon", &pcu.Message{Kind: pcu.MsgRegisterInstance, Instance: inst,
		Args: map[string]string{"filter": "*, *, TCP, *, *, *"}}); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		flows   = 64
		iters   = 2000
	)
	var wg, flusher sync.WaitGroup
	done := make(chan struct{})
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			a.FlowTable().FlushWhere(func(r *aiu.FlowRecord) bool { return r.Key.Src.V4Uint()%3 == uint32(i%3) })
			inst.Report()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := tcpPacket(t, 0x0a000000+uint32((w*17+i)%flows), 1000, uint32(i))
				if got, _ := a.LookupGate(p, pcu.TypeMonitor, time.Now(), nil); got != inst {
					t.Errorf("flow bound to %v", got)
					return
				}
				if err := inst.HandlePacket(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	flusher.Wait()
	if n := inst.states.Owned(); n > 16 {
		t.Errorf("%d tracked states for a 16-record table", n)
	}
	if st := a.FlowTable().Stats(); st.Recycled == 0 || st.Removed == 0 {
		t.Errorf("the race needs recycles and flushes: %+v", st)
	}
}

// TestHFSCClassAddedAfterFirstPacket: a flow whose filter names a class
// that does not exist yet goes to the default class, and its next packet
// after add-class creates the class lands there — the class follows the
// filter's reservation, not a per-flow cache.
func TestHFSCClassAddedAfterFirstPacket(t *testing.T) {
	rg := newRig(t)
	rg.reg.Load(NewHFSCPlugin(rg.env))
	inst := rg.create(t, "hfsc", map[string]string{"iface": "1", "rate": "1000000"}).(*HFSCInstance)
	// register-instance refuses a class that does not exist, so bind
	// the reservation directly, as a filter installed ahead of its class.
	if _, err := rg.a.Bind(pcu.TypeSched, aiu.MustParseFilter("10.0.0.1, *, UDP, *, *, *"), inst, &Reservation{Class: "gold"}); err != nil {
		t.Fatal(err)
	}
	served := func() (def, gold uint64) {
		for rg.r.TxDrain(1, 1) == 1 {
		}
		for _, cs := range inst.ClassStats() {
			switch cs.Name {
			case "default":
				def = cs.Served
			case "gold":
				gold = cs.Served
			}
		}
		return def, gold
	}
	if !rg.r.Forward(udp(t, "10.0.0.1", 1, 100)) {
		t.Fatal("first packet not forwarded")
	}
	if def, _ := served(); def == 0 {
		t.Fatal("the first packet did not reach the default class")
	}
	if err := rg.reg.Send("hfsc", &pcu.Message{Kind: pcu.MsgCustom, Verb: "add-class", Instance: inst,
		Args: map[string]string{"name": "gold", "ls": "500000"}}); err != nil {
		t.Fatal(err)
	}
	if !rg.r.Forward(udp(t, "10.0.0.1", 1, 100)) {
		t.Fatal("second packet not forwarded")
	}
	if _, gold := served(); gold == 0 {
		t.Error("the flow's packet after add-class did not land in gold")
	}
}
