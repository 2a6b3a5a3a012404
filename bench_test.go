package eisr_test

// bench_test.go hosts one testing.B benchmark per evaluation artifact of
// the paper, mirroring the cmd/eisrbench experiments in `go test -bench`
// form:
//
//	BenchmarkTable2FilterLookup  — Table 2 (classification memory accesses)
//	BenchmarkTable3*             — Table 3 (the four kernel configurations)
//	BenchmarkFlowTable*          — in-text flow-cache costs (hash, hit, miss)
//	BenchmarkDAGvsLinear*        — §5.1.2 classifier scaling claim
//	BenchmarkScheduler*          — §6/§7.3 scheduler costs
//	BenchmarkDispatch*           — indirect (gate) vs hardwired call ablation

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/plugins"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/sched"
	"github.com/routerplugins/eisr/internal/trafficgen"
)

type nullInst struct{}

func (nullInst) InstanceName() string             { return "null" }
func (nullInst) HandlePacket(p *pkt.Packet) error { return nil }

// --- Table 2 ---------------------------------------------------------

func BenchmarkTable2FilterLookup(b *testing.B) {
	for _, tc := range []struct {
		n  int
		v6 bool
	}{{16, false}, {10000, false}, {16, true}, {10000, true}} {
		fam := "IPv4"
		if tc.v6 {
			fam = "IPv6"
		}
		b.Run(fmt.Sprintf("%s/%dfilters", fam, tc.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL}, pcu.TypeSched)
			var inst nullInst
			for _, f := range trafficgen.FlowLikeFilters(rng, tc.n, tc.v6) {
				a.Bind(pcu.TypeSched, f, inst, nil)
			}
			keys := trafficgen.RandomKeys(rng, 1024, tc.v6)
			a.ClassifyKey(pcu.TypeSched, keys[0], nil) // build
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ClassifyKey(pcu.TypeSched, keys[i&1023], nil)
			}
		})
	}
}

// --- Table 3 ---------------------------------------------------------

// table3Router assembles one Table 3 kernel configuration.
func table3Router(b *testing.B, mode ipcore.Mode, gates []pcu.Type, mono sched.Scheduler, drr bool) (*ipcore.Router, *netdev.Interface) {
	b.Helper()
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		b.Fatal(err)
	}
	routes.Add(pkt.MustParsePrefix("0.0.0.0/0"), routing.NextHop{IfIndex: 1})
	var a *aiu.AIU
	if mode == ipcore.ModePlugin {
		a = aiu.New(aiu.Config{BMPKind: bmp.KindBSPL}, gates...)
	}
	r, err := ipcore.New(ipcore.Config{
		Mode: mode, Gates: gates, AIU: a, Routes: routes, MonoSched: mono,
		VerifyChecksums: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := netdev.NewInterface(0, netdev.Config{})
	out := netdev.NewInterface(1, netdev.Config{})
	r.AddInterface(in)
	r.AddInterface(out)
	if a != nil {
		var inst nullInst
		for _, f := range trafficgen.Table3Filters() {
			if _, err := a.Bind(gates[0], f, inst, nil); err != nil {
				b.Fatal(err)
			}
		}
		if drr {
			env := &plugins.Env{Router: r, AIU: a}
			pl := plugins.NewDRRPlugin(env)
			msg := &pcu.Message{Kind: pcu.MsgCreateInstance, Args: map[string]string{"iface": "1", "quantum": "9180"}}
			if err := pl.Callback(msg); err != nil {
				b.Fatal(err)
			}
			if _, err := a.Bind(pcu.TypeSched, aiu.MatchAll(), msg.Reply.(pcu.Instance), nil); err != nil {
				b.Fatal(err)
			}
		} else {
			for _, g := range gates {
				if _, err := a.Bind(g, aiu.MatchAll(), nullInst{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return r, in
}

func benchTable3(b *testing.B, r *ipcore.Router, in *netdev.Interface) {
	b.Helper()
	flows := trafficgen.Table3Flows()
	protos := make([][]byte, len(flows))
	for i, f := range flows {
		d, err := f.Datagram()
		if err != nil {
			b.Fatal(err)
		}
		protos[i] = d
	}
	b.SetBytes(int64(len(protos[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Inject(protos[i%3]); err != nil {
			b.Fatal(err)
		}
		p := in.Poll()
		r.ProcessOne(p)
	}
}

func BenchmarkTable3BestEffort(b *testing.B) {
	r, in := table3Router(b, ipcore.ModeBestEffort, nil, nil, false)
	benchTable3(b, r, in)
}

func BenchmarkTable3PluginFramework(b *testing.B) {
	gates := []pcu.Type{pcu.TypeOptions, pcu.TypeSecurity, pcu.TypeFirewall}
	r, in := table3Router(b, ipcore.ModePlugin, gates, nil, false)
	benchTable3(b, r, in)
}

func BenchmarkTable3ALTQDRR(b *testing.B) {
	r, in := table3Router(b, ipcore.ModeBestEffort, nil, sched.NewALTQDRR(256, 1500), false)
	benchTable3(b, r, in)
}

func BenchmarkTable3PluginDRR(b *testing.B) {
	r, in := table3Router(b, ipcore.ModePlugin, []pcu.Type{pcu.TypeSched}, nil, true)
	benchTable3(b, r, in)
}

// --- Flow table ------------------------------------------------------

func BenchmarkFlowTableHash(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keys := trafficgen.RandomKeys(rng, 1024, true)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= pkt.FlowHash(keys[i&1023])
	}
	_ = sink
}

func BenchmarkFlowTableHit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ft := aiu.NewFlowTable(1024, 65536, 4)
	keys := trafficgen.RandomKeys(rng, 1024, true)
	now := time.Now()
	for _, k := range keys {
		ft.Insert(k, now, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Lookup(keys[i&1023], now, nil)
	}
}

// BenchmarkFlowTableMissAndClassify times the first-packet path as a
// churning workload meets it: every key is new, and the flow table is
// already at its cap, so each miss classifies and recycles the oldest
// record.
func BenchmarkFlowTableMissAndClassify(b *testing.B) {
	const flows = 1 << 12 // the table's cap
	rng := rand.New(rand.NewSource(3))
	a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL, InitialFlows: flows, MaxFlows: flows}, pcu.TypeSched)
	var inst nullInst
	for _, f := range trafficgen.FlowLikeFilters(rng, 1000, true) {
		a.Bind(pcu.TypeSched, f, inst, nil)
	}
	keys := trafficgen.RandomKeys(rng, 1<<16, true)
	a.ClassifyKey(pcu.TypeSched, keys[0], nil)
	now := time.Now()
	var p pkt.Packet
	miss := func(i int) {
		// Key index and port repeat only every 64k flows, long after the
		// table has recycled the previous use.
		k := keys[i&(1<<16-1)]
		k.SrcPort = uint16(i)
		p = pkt.Packet{OutIf: -1}
		p.SetKey(k)
		a.LookupGate(&p, pcu.TypeSched, now, nil)
	}
	// Fill every shard to its cap, twice over.
	for i := 0; i < 2*flows; i++ {
		miss(i)
	}
	before := a.FlowTable().Stats().Recycled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss(2*flows + i)
	}
	b.StopTimer()
	b.ReportMetric(float64(a.FlowTable().Stats().Recycled-before)/float64(b.N), "recycles/op")
}

// --- Classifier scaling ----------------------------------------------

func BenchmarkDAGvsLinear(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{64, 1024, 8192} {
		filters := trafficgen.FlowLikeFilters(rng, n, false)
		keys := trafficgen.RandomKeys(rng, 1024, false)
		a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL}, pcu.TypeSched)
		var recs []*aiu.FilterRecord
		for _, f := range filters {
			rec, _ := a.Bind(pcu.TypeSched, f, nullInst{}, nil)
			recs = append(recs, rec)
		}
		a.ClassifyKey(pcu.TypeSched, keys[0], nil)
		b.Run(fmt.Sprintf("DAG/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.ClassifyKey(pcu.TypeSched, keys[i&1023], nil)
			}
		})
		b.Run(fmt.Sprintf("linear/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := keys[i&1023]
				for _, r := range recs {
					if r.Filter.Matches(k) {
						break
					}
				}
			}
		})
	}
}

// --- Schedulers ------------------------------------------------------

func BenchmarkSchedulerDRR(b *testing.B) {
	d := sched.NewDRR(1500, 1<<20)
	qs := [3]*sched.DRRQueue{}
	for i := range qs {
		qs[i], _ = d.Queue(uint32(i), 0)
	}
	p := &pkt.Packet{Data: make([]byte, 1000)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.EnqueueFlow(qs[i%3], p)
		d.Dequeue()
	}
}

func BenchmarkSchedulerHFSC(b *testing.B) {
	h := sched.NewHFSC(125e6)
	rt := sched.LinearCurve(40e6)
	cls := [3]*sched.Class{}
	for i := range cls {
		cls[i], _ = h.AddClass(fmt.Sprintf("c%d", i), nil, &rt, &rt, nil, nil)
	}
	p := &pkt.Packet{Data: make([]byte, 1000)}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-5
		h.EnqueueClass(cls[i%3], p, now)
		h.DequeueAt(now)
	}
}

func BenchmarkSchedulerALTQ(b *testing.B) {
	altq := sched.NewALTQDRR(256, 1500)
	data, _ := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.AddrV4(0x0a000001), Dst: pkt.AddrV4(0x14000001),
		SrcPort: 7, DstPort: 9, Payload: make([]byte, 992),
	})
	p, _ := pkt.NewPacket(data, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		altq.Enqueue(p)
		altq.Dequeue()
	}
}

// --- Dispatch ablation -------------------------------------------------

// BenchmarkDispatch contrasts a hardwired function call against the
// indirect per-flow instance call of the gate mechanism — the paper's
// claim that "picking the right instance of a plugin does not cost more
// than an indirect function call".
func BenchmarkDispatch(b *testing.B) {
	p := &pkt.Packet{Data: make([]byte, 64)}
	direct := func(q *pkt.Packet) error { return nil }
	var inst pcu.Instance = nullInst{}
	b.Run("hardwired", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			direct(p)
		}
	})
	b.Run("indirect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst.HandlePacket(p)
		}
	})
}
