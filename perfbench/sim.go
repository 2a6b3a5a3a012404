package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/routerplugins/eisr"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/trafficgen"
)

const (
	matchAll = "<*, *, *, *, *, *>"
	// txBudget is ProcessOne's per-packet transmit budget, used when the
	// traced loop calls Forward and TxDrain separately.
	txBudget = 4
	// sinkSlots exceeds every TxDrain budget the harness passes, so the
	// sink itself never refuses a packet.
	sinkSlots = 64
	// churnEvery and churnSize: fibchurn withdraws churnSize live
	// prefixes and re-announces the previous batch every churnEvery
	// packets, in one ApplyBatch.
	churnEvery = 10_000
	churnSize  = 100
)

// sinkDriver stands in for the egress NIC of a simulated interface: the
// transmit handoff copies each datagram into a slot, where the harness
// checks it once the router call returns.
type sinkDriver struct {
	bufs [sinkSlots][]byte
	lens [sinkSlots]int
	n    int
}

func newSinkDriver() *sinkDriver {
	d := &sinkDriver{}
	for i := range d.bufs {
		d.bufs[i] = make([]byte, 2048)
	}
	return d
}

func (d *sinkDriver) Start() {}
func (d *sinkDriver) Stop()  {}

// TransmitWire implements netdev.Driver: copy synchronously, never block.
func (d *sinkDriver) TransmitWire(p *pkt.Packet) error {
	if d.n == sinkSlots {
		return netdev.ErrRingFull
	}
	if len(p.Data) > len(d.bufs[d.n]) {
		return netdev.ErrTooBig
	}
	d.lens[d.n] = copy(d.bufs[d.n], p.Data)
	d.n++
	return nil
}

// simInputs are a simulated workload's generated inputs: the flows and
// the routes beyond the default one, plus fibchurn's churn order.
type simInputs struct {
	flows  *flowSet
	routes []routing.Route
	churn  []routing.Route
}

// defaultRoute sends everything out of interface 1.
var defaultRoute = routing.Route{
	Prefix:  pkt.PrefixFrom(pkt.AddrV4(0), 0),
	NextHop: routing.NextHop{IfIndex: 1},
}

// cachehitInputs: 64 flows from 10/8 to 20/8, one default route.
func cachehitInputs(seed uint64) (*simInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 1))
	flows, err := buildFlows(64, func(int) pkt.UDPSpec {
		return pkt.UDPSpec{
			Src:     pkt.AddrV4(0x0a000000 | rng.Uint32N(1<<24)),
			Dst:     pkt.AddrV4(0x14000000 | rng.Uint32N(1<<24)),
			SrcPort: uint16(1024 + rng.IntN(64000)), DstPort: uint16(1 + rng.IntN(65535)),
		}
	})
	if err != nil {
		return nil, err
	}
	return &simInputs{flows: flows}, nil
}

const (
	fibPrefixes = 100_000
	fibFlows    = 256 << 10
)

// fibLens is the prefix-length mix, drawn uniformly. It is synthetic,
// not taken from a real table: it is the mix of the repository's FIB
// sweep (genRoutes in internal/bench/fib.go), so the two FIB benchmarks
// load the same kind of table. Duplicates are redrawn, so the short
// lengths saturate (every /8, /10 and /12 is present) and each
// destination nests under several covering prefixes.
var fibLens = []int{8, 10, 12, 14, 16, 18, 20, 22, 24, 24, 24, 24, 24, 28, 32}

// fibchurnInputs: 100k distinct IPv4 prefixes of the fibLens mix, and
// 256k flows, each to a random host inside a prefix picked uniformly
// (not weighted by any traffic share).
func fibchurnInputs(seed uint64) (*simInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 2))
	seen := make(map[pkt.Prefix]bool, fibPrefixes)
	routes := make([]routing.Route, 0, fibPrefixes)
	for len(routes) < fibPrefixes {
		l := fibLens[rng.IntN(len(fibLens))]
		p := pkt.PrefixFrom(pkt.AddrV4(rng.Uint32()), l)
		if seen[p] {
			continue
		}
		seen[p] = true
		routes = append(routes, routing.Route{Prefix: p, NextHop: routing.NextHop{IfIndex: 1}})
	}
	flows, err := buildFlows(fibFlows, func(int) pkt.UDPSpec {
		for {
			p := routes[rng.IntN(len(routes))].Prefix
			dst := p.Addr.V4Uint() | rng.Uint32()&(1<<(32-p.Len)-1)
			if dst == 0xffffffff { // limited broadcast is delivered locally, never forwarded
				continue
			}
			return pkt.UDPSpec{
				Src:     pkt.AddrV4(0x0a000000 | rng.Uint32N(1<<24)),
				Dst:     pkt.AddrV4(dst),
				SrcPort: uint16(1024 + rng.IntN(64000)), DstPort: uint16(1 + rng.IntN(65535)),
			}
		}
	})
	if err != nil {
		return nil, err
	}
	churn := append([]routing.Route(nil), routes...)
	rng.Shuffle(len(churn), func(i, j int) { churn[i], churn[j] = churn[j], churn[i] })
	return &simInputs{flows: flows, routes: routes, churn: churn}, nil
}

// simHarness is the state shared by every assembly of a simulated
// workload: inputs, the verifier, and the seeded flow choice.
type simHarness struct {
	in  *simInputs
	ver *verifier
	rng *rand.Rand
	seq uint64
}

// simRig is one router on simulated interfaces, driven one packet at a
// time from the calling goroutine: Inject → Poll → ProcessOne, with the
// transmitted datagram checked at the sink.
type simRig struct {
	h       *simHarness
	r       *eisr.Router
	in, out *netdev.Interface
	sink    *sinkDriver
	churn   *churner
	counter cycles.Counter

	sent, verified, invalid int64
	firstErr                error
	buildStart, buildEnd    int64
}

// assemble builds the cachehit/fibchurn router: plugin mode with
// checksum verification, DRR bound match-all at the scheduling gate, an
// empty (null) instance bound match-all at every other default gate,
// the paper's 16 non-matching Table 3 filters in the options gate's
// table, and the routes — loaded as one ApplyBatch — then forwards and
// verifies the first packet.
func (h *simHarness) assemble() (*simRig, error) {
	r, err := eisr.New(eisr.Options{VerifyChecksums: true})
	if err != nil {
		return nil, err
	}
	s := &simRig{h: h, r: r, sink: newSinkDriver()}
	if s.in, err = r.AddInterface(0, "in0", ""); err != nil {
		return nil, err
	}
	if s.out, err = r.AddInterface(1, "out1", ""); err != nil {
		return nil, err
	}
	s.out.AttachDriver(s.sink)
	if err := bind(r, "drr", map[string]string{"iface": "1"}, matchAll); err != nil {
		return nil, err
	}
	for _, g := range []string{"options", "security", "routing"} {
		if err := bind(r, "null-"+g, nil, matchAll); err != nil {
			return nil, err
		}
	}
	inst, err := r.CreateInstance("null-options", nil)
	if err != nil {
		return nil, err
	}
	for _, f := range trafficgen.Table3Filters() {
		if err := r.Register("null-options", inst, map[string]string{"filter": f.String()}); err != nil {
			return nil, err
		}
	}
	routes := append(append(make([]routing.Route, 0, len(h.in.routes)+1), h.in.routes...), defaultRoute)
	s.buildStart = nanotime()
	r.Routes.ApplyBatch(routes, nil)
	s.buildEnd = nanotime()
	if h.in.churn != nil {
		s.churn = &churner{table: r.Routes, order: h.in.churn}
	}
	s.push(s.next(0))
	if s.drainSink() != 1 {
		return nil, fmt.Errorf("first packet not delivered: %v", s.ledger())
	}
	return s, nil
}

// bind loads a plugin, creates an instance and registers one filter.
func bind(r *eisr.Router, plugin string, args map[string]string, filter string) error {
	if err := r.LoadPlugin(plugin); err != nil {
		return err
	}
	inst, err := r.CreateInstance(plugin, args)
	if err != nil {
		return err
	}
	return r.Register(plugin, inst, map[string]string{"filter": filter})
}

// next stamps flow f's datagram with the next sequence number and
// registers it as sent.
func (s *simRig) next(f int) []byte {
	d := s.h.in.flows.datagram(f)
	stampSeq(d, s.h.seq)
	s.h.ver.expect(s.h.seq)
	s.h.seq++
	s.sent++
	return d
}

// push drives one datagram through Inject → Poll → ProcessOne.
func (s *simRig) push(d []byte) {
	if s.in.Inject(d) == nil {
		if p := s.in.Poll(); p != nil {
			s.r.Core.ProcessOne(p)
		}
	}
}

// drainSink checks every datagram the sink holds and reports how many
// passed.
func (s *simRig) drainSink() int64 {
	var ok int64
	for i := 0; i < s.sink.n; i++ {
		if err := s.h.ver.check(s.sink.bufs[i][:s.sink.lens[i]]); err != nil {
			s.invalid++
			if s.firstErr == nil {
				s.firstErr = err
			}
			continue
		}
		ok++
	}
	s.sink.n = 0
	s.verified += ok
	return ok
}

// load drives the workload until the phase's window ends; with a
// tracer, every call into the router is timed into it.
func (s *simRig) load(ph *phase, tr *tracer) {
	if tr != nil {
		s.loadTraced(ph, tr)
		return
	}
	flows := s.h.in.flows
	for {
		d := s.next(s.h.rng.IntN(flows.n))
		t0 := nanotime()
		s.push(d)
		t1 := nanotime()
		if n := s.drainSink(); n > 0 {
			ph.pkts += n
			ph.samples.add(t1, t1-t0)
		}
		if s.churn != nil && s.sent%churnEvery == 0 {
			s.churn.step()
		}
		if t1 >= ph.rulerNext {
			ph.readRuler(t1)
		}
		if t1 >= ph.next && ph.tick(t1) {
			return
		}
	}
}

// loadTraced is load with every call timed: ProcessOne is split into
// the Forward and TxDrain it consists of, so each gets its own span.
func (s *simRig) loadTraced(ph *phase, tr *tracer) {
	flows := s.h.in.flows
	for {
		seq := s.h.seq
		d := s.next(s.h.rng.IntN(flows.n))
		t0 := nanotime()
		err := s.in.Inject(d)
		t1 := nanotime()
		var p *pkt.Packet
		if err == nil {
			p = s.in.Poll()
		}
		t2 := nanotime()
		ok := p != nil && s.r.Core.Forward(p)
		t3 := nanotime()
		if ok {
			s.r.Core.TxDrain(s.out.Index, txBudget)
		}
		t4 := nanotime()
		n := s.drainSink()
		t5 := nanotime()
		tr.add(spPacket, t0, t5)
		tr.add(spInject, t0, t1)
		tr.add(spPoll, t1, t2)
		tr.add(spForward, t2, t3)
		tr.add(spTxDrain, t3, t4)
		tr.add(spVerify, t4, t5)
		if tr.keep(seq, 6) {
			id := int64(seq)
			root := tr.store(spPacket, -1, t0, t5, id)
			tr.store(spInject, root, t0, t1, id)
			tr.store(spPoll, root, t1, t2, id)
			tr.store(spForward, root, t2, t3, id)
			tr.store(spTxDrain, root, t3, t4, id)
			tr.store(spVerify, root, t4, t5, id)
		}
		if n > 0 {
			ph.pkts += n
			ph.samples.add(t4, t4-t0)
		}
		if s.churn != nil && s.sent%churnEvery == 0 {
			a := nanotime()
			s.churn.step()
			tr.record(spApply, a, nanotime())
		}
		if t5 >= ph.rulerNext {
			ph.readRuler(t5)
		}
		if t5 >= ph.next && ph.tick(t5) {
			return
		}
	}
}

// finish transmits whatever is still queued and checks it.
func (s *simRig) finish() ledger {
	for s.r.Core.TxDrain(s.out.Index, sinkSlots/2) > 0 {
		s.drainSink()
	}
	return s.ledger()
}

func (s *simRig) ledger() ledger {
	ins, outs, core := s.in.Stats(), s.out.Stats(), s.r.Core.Stats()
	return ledger{
		sent: s.sent, verified: s.verified, invalid: s.invalid, firstErr: s.firstErr,
		netdev: ins.RxDrops + ins.TxDrops + outs.RxDrops + outs.TxDrops,
		ipcore: core.Dropped,
		detail: fmt.Sprintf("netdev{rx_ring=%d rx_malformed=%d tx_ring=%d tx_too_big=%d} %s",
			ins.RxDropRing, ins.RxDropMalformed, outs.TxDropRing, outs.TxDropTooBig, coreDrops(core)),
	}
}

func (s *simRig) snapshot() counters {
	cached, first := s.r.AIU.Stats()
	ins, outs, core := s.in.Stats(), s.out.Stats(), s.r.Core.Stats()
	return counters{
		aiuCached: cached, aiuFirst: first,
		netdevDrops:  ins.RxDrops + ins.TxDrops + outs.RxDrops + outs.TxDrops,
		mbufFallback: ins.MbufFallback + outs.MbufFallback,
		ipcoreDrops:  core.Dropped,
		memAccesses:  s.counter.Mem,
	}
}

// count attaches the classifier cost counter to the core (the harness
// goroutine is the only one forwarding, so this is safe between calls).
func (s *simRig) count(on bool) {
	if on {
		s.r.Core.Counter = &s.counter
	} else {
		s.r.Core.Counter = nil
	}
}

// churner withdraws churnSize live prefixes per step and re-announces
// the ones the previous step withdrew, in one ApplyBatch, so the table
// keeps its size while its structure changes under the lookups.
type churner struct {
	table      *routing.Table
	order      []routing.Route
	pos        int
	back, next []routing.Route
	dels       []pkt.Prefix
}

func (c *churner) step() {
	c.dels, c.next = c.dels[:0], c.next[:0]
	for i := 0; i < churnSize; i++ {
		rt := c.order[c.pos]
		c.pos = (c.pos + 1) % len(c.order)
		c.dels = append(c.dels, rt.Prefix)
		c.next = append(c.next, rt)
	}
	c.table.ApplyBatch(c.back, c.dels)
	c.back, c.next = c.next, c.back
}
