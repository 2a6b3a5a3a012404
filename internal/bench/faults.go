package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/ipcore"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// FaultsRow is one measurement of the fault-isolation experiment.
type FaultsRow struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
	HasAllocs   bool // rows measured with alloc accounting
}

// FaultsOptions sizes the experiment.
type FaultsOptions struct {
	Packets int // per-row iteration count (default 200k)
}

// panicInstance panics on every dispatch — the worst case the barrier
// must contain.
type panicInstance struct{}

func (panicInstance) InstanceName() string { return "panic" }
func (panicInstance) HandlePacket(p *pkt.Packet) error {
	panic("bench: injected panic")
}

// measure times fn over n iterations and accounts allocations.
func measure(n int, fn func()) FaultsRow {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return FaultsRow{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		HasAllocs:   true,
	}
}

// RunFaults measures the panic barrier: the cost of a guarded dispatch
// against a raw one on the no-fault path (the ISSUE's target is zero
// measurable regression and zero allocations), the cost of an actual
// contained panic, and the end-to-end quarantine behavior — a plugin
// that panics on every packet is quarantined after the health
// threshold and traffic keeps flowing on the default path.
func RunFaults(opt FaultsOptions) ([]FaultsRow, int, error) {
	if opt.Packets <= 0 {
		opt.Packets = 200_000
	}
	n := opt.Packets

	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.AddrV4(0x0a000001), Dst: pkt.AddrV4(0x14000001),
		SrcPort: 1000, DstPort: 9, TTL: 255, Payload: make([]byte, 64),
	})
	if err != nil {
		return nil, 0, err
	}
	p, err := pkt.NewPacket(data, 0)
	if err != nil {
		return nil, 0, err
	}

	inst := benchInstance{}
	var rows []FaultsRow

	// Raw dispatch: the pre-isolation call the barrier replaces.
	r0 := measure(n, func() {
		_ = inst.HandlePacket(p) //eisr:allow(lifecycle) barrier-overhead baseline measures the unguarded call
	})
	r0.Name = "dispatch, unguarded (pre-isolation baseline)"
	rows = append(rows, r0)

	// Guarded dispatch, no fault: the steady-state cost every packet
	// pays at every gate.
	guard := pcu.NewGuard(pcu.PolicyDrop, pcu.NewHealth(pcu.HealthConfig{}))
	r1 := measure(n, func() {
		_, _ = guard.Dispatch(pcu.TypeSched, inst, p)
	})
	r1.Name = "dispatch, guarded, no fault"
	rows = append(rows, r1)

	// Guarded dispatch, panic every packet: the contained-fault cost
	// (stack capture dominates). Threshold negative so the instance is
	// never quarantined and every iteration exercises the full path.
	fg := pcu.NewGuard(pcu.PolicyDrop, pcu.NewHealth(pcu.HealthConfig{Threshold: -1}))
	nFault := n / 100
	if nFault < 1000 {
		nFault = 1000
	}
	r2 := measure(nFault, func() {
		_, _ = fg.Dispatch(pcu.TypeSched, panicInstance{}, p)
	})
	r2.Name = "dispatch, guarded, panic every packet"
	rows = append(rows, r2)

	// End to end: a router with a panic-on-every-packet instance bound
	// at the sched gate. The health tracker quarantines it after the
	// default threshold, its filters are unbound, and the remaining
	// packets forward on the default path.
	routes, err := routing.New(bmp.KindBSPL)
	if err != nil {
		return nil, 0, err
	}
	a := aiu.New(aiu.Config{BMPKind: bmp.KindBSPL}, pcu.TypeSched)
	bad := panicInstance{}
	health := pcu.NewHealth(pcu.HealthConfig{
		OnQuarantine: func(qi pcu.Instance, f *pcu.PluginFault) {
			a.UnbindInstance(qi)
		},
	})
	eguard := pcu.NewGuard(pcu.PolicyDrop, health)
	a.SetGuard(eguard)
	if _, err := a.Bind(pcu.TypeSched, aiu.MatchAll(), bad, nil); err != nil {
		return nil, 0, err
	}
	core, err := ipcore.New(ipcore.Config{
		Mode: ipcore.ModePlugin, Gates: []pcu.Type{pcu.TypeSched},
		AIU: a, Routes: routes, Guard: eguard,
		OutQueueLen: n + 4096,
	})
	if err != nil {
		return nil, 0, err
	}
	core.AddInterface(netdev.NewInterface(0, netdev.Config{}))
	core.AddInterface(netdev.NewInterface(1, netdev.Config{}))
	routes.Add(pkt.PrefixFrom(pkt.AddrV4(0), 0), routing.NextHop{IfIndex: 1})

	nE2E := n / 10
	if nE2E < 2000 {
		nE2E = 2000
	}
	now := pkt.Nanotime()
	start := time.Now()
	for i := 0; i < nE2E; i++ {
		// Rebuild the packet struct each iteration (Forward mutates it).
		// Same five-tuple throughout: the quarantine flushes the cached
		// flow binding, so the next packet re-classifies to the default
		// path — exactly the degradation under test.
		q := &pkt.Packet{Data: data, InIf: 0, OutIf: -1, Stamp: now}
		core.Forward(q)
		for core.TxDrain(1, 64) > 0 {
		}
	}
	r3 := FaultsRow{
		Name:    "end-to-end forward, panicking instance (quarantined)",
		NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(nE2E),
	}
	rows = append(rows, r3)

	st := core.Stats()
	if st.PluginFaults == 0 {
		return nil, 0, fmt.Errorf("bench: expected contained faults, got none (stats %+v)", st)
	}
	if st.Forwarded == 0 {
		return nil, 0, fmt.Errorf("bench: router did not keep forwarding after quarantine (stats %+v)", st)
	}
	return rows, int(st.PluginFaults), nil
}

// FaultsTable renders the experiment.
func FaultsTable(rows []FaultsRow, faults int) *Table {
	t := &Table{
		Title:  "Plugin fault isolation: barrier overhead and quarantine",
		Header: []string{"path", "ns/op", "allocs/op"},
	}
	for _, r := range rows {
		allocs := "-"
		if r.HasAllocs {
			allocs = fmt.Sprintf("%.2f", r.AllocsPerOp)
		}
		t.Add(r.Name, fmt.Sprintf("%.1f", r.NsPerOp), allocs)
	}
	t.Note("no-fault guarded dispatch must add no allocations (recover-free happy path)")
	t.Note("end-to-end row: instance quarantined after the default threshold (%d faults contained), traffic degraded to the default path", faults)
	return t
}
