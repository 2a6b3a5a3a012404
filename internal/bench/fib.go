package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr"
	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/netio"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
)

// FIBRow is one (BMP kind, table size) point of the full-table FIB
// sweep.
type FIBRow struct {
	Kind string
	Size int
	// Build is the bulk-load convergence time: one ApplyBatch carrying
	// the entire table, one snapshot publication.
	Build time.Duration
	// LookupNS is the steady-state per-lookup cost against the loaded
	// table (mix of covered and random destinations).
	LookupNS float64
	// AllocsPerLookup must be zero: the data path takes one snapshot
	// load and walks immutable structure.
	AllocsPerLookup float64
	// IncUpdateNS is the mean cost of one single-route mutation batch
	// (withdraw + re-announce pairs) on the full table — the
	// incremental ApplyDelta path.
	IncUpdateNS float64
	// Rebuild is the cost of building the same table from scratch (the
	// path every route flap paid before incremental updates).
	Rebuild time.Duration
	// Ratio is Rebuild per-batch over IncUpdateNS — how much cheaper a
	// single-route change is than the full rebuild it replaces.
	Ratio float64
}

// FIBOptions sizes the FIB sweep.
type FIBOptions struct {
	// Sizes are the table sizes (default 10k, 100k, 1M).
	Sizes []int
	// Kinds are the BMP engines (default the incremental ones:
	// patricia, bspl, cpe).
	Kinds []string
	// UpdateOps is how many single-route mutation batches are timed
	// per point (default 200).
	UpdateOps int
	Seed      int64
}

// genRoutes builds n unique prefixes with a BGP-shaped length mix
// (heavy /24s, aggregates from /8 to /22), all next-hopping dev 1.
func genRoutes(rng *rand.Rand, n int) []routing.Route {
	lens := []int{8, 10, 12, 14, 16, 18, 20, 22, 24, 24, 24, 24, 24, 28, 32}
	seen := make(map[pkt.Prefix]struct{}, n)
	out := make([]routing.Route, 0, n)
	for len(out) < n {
		l := lens[rng.Intn(len(lens))]
		p := pkt.PrefixFrom(pkt.AddrV4(rng.Uint32()), l)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, routing.Route{
			Prefix:  p,
			NextHop: routing.NextHop{IfIndex: 1, Metric: 1 + rng.Intn(4)},
		})
	}
	return out
}

// fibProbes builds the lookup workload: mostly destinations covered by
// the table (route base addresses), the rest random.
func fibProbes(rng *rand.Rand, routes []routing.Route, n int) []pkt.Addr {
	probes := make([]pkt.Addr, n)
	for i := range probes {
		if rng.Intn(10) < 7 {
			probes[i] = routes[rng.Intn(len(routes))].Prefix.Addr
		} else {
			probes[i] = pkt.AddrV4(rng.Uint32())
		}
	}
	return probes
}

// RunFIB sweeps table sizes across the incremental BMP engines,
// measuring bulk-load convergence, steady-state lookup cost (and its
// allocation count), single-route incremental update cost, and the
// full-rebuild cost those updates replace.
func RunFIB(opts FIBOptions) ([]FIBRow, error) {
	sizes := opts.Sizes
	if len(sizes) == 0 {
		sizes = []int{10_000, 100_000, 1_000_000}
	}
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = []string{"patricia", "bspl", "cpe"}
	}
	updateOps := opts.UpdateOps
	if updateOps <= 0 {
		updateOps = 200
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1998
	}
	var rows []FIBRow
	for _, size := range sizes {
		rng := rand.New(rand.NewSource(seed))
		routes := genRoutes(rng, size)
		probes := fibProbes(rng, routes, 1<<16)
		for _, kind := range kinds {
			row, err := runFIBPoint(kind, routes, probes, updateOps, rng)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runFIBPoint(kind string, routes []routing.Route, probes []pkt.Addr, updateOps int, rng *rand.Rand) (FIBRow, error) {
	row := FIBRow{Kind: kind, Size: len(routes)}
	tbl, err := routing.New(bmp.Kind(kind))
	if err != nil {
		return row, err
	}

	start := time.Now()
	tbl.ApplyBatch(routes, nil)
	row.Build = time.Since(start)

	// Lookup cost: several passes over the probe set, best pass wins
	// (steady-state, warm caches).
	var sink int32
	best := time.Duration(1<<62 - 1)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for _, a := range probes {
			if nh, ok := tbl.Lookup(a, nil); ok {
				sink += nh.IfIndex
			}
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	_ = sink
	row.LookupNS = float64(best.Nanoseconds()) / float64(len(probes))
	row.AllocsPerLookup = measureLookupAllocs(tbl, probes)

	// Incremental update cost: withdraw + re-announce existing routes
	// as single-route batches (table size holds steady; for the
	// incremental engines every batch takes the ApplyDelta path).
	t0 := time.Now()
	for i := 0; i < updateOps; i++ {
		rt := routes[rng.Intn(len(routes))]
		tbl.ApplyBatch(nil, []pkt.Prefix{rt.Prefix})
		tbl.ApplyBatch([]routing.Route{rt}, nil)
	}
	row.IncUpdateNS = float64(time.Since(t0).Nanoseconds()) / float64(2*updateOps)

	// The rebuild every flap used to pay: fresh engine, every insert,
	// every lazy internal primed (mirrors the table's rebuild path).
	t0 = time.Now()
	b, err := bmp.New(bmp.Kind(kind))
	if err != nil {
		return row, err
	}
	for _, rt := range routes {
		b.Insert(rt.Prefix, rt.NextHop)
	}
	for _, rt := range routes {
		b.Lookup(rt.Prefix.Addr, nil)
	}
	row.Rebuild = time.Since(t0)
	if row.IncUpdateNS > 0 {
		row.Ratio = float64(row.Rebuild.Nanoseconds()) / row.IncUpdateNS
	}
	return row, nil
}

// measureLookupAllocs counts heap allocations per lookup over a probe
// pass (runtime.MemStats delta; avoids importing testing outside
// tests). Best of three passes: the delta sees the whole process, so a
// pass can pick up stray background runtime allocations — a clean pass
// proves the lookup path itself allocated nothing.
func measureLookupAllocs(tbl *routing.Table, probes []pkt.Addr) float64 {
	best := -1.0
	for pass := 0; pass < 3; pass++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, a := range probes {
			tbl.Lookup(a, nil)
		}
		runtime.ReadMemStats(&m1)
		if got := float64(m1.Mallocs-m0.Mallocs) / float64(len(probes)); best < 0 || got < best {
			best = got
		}
	}
	return best
}

// FIBTable renders the FIB sweep.
func FIBTable(rows []FIBRow) *Table {
	t := &Table{
		Title:  "Full-table FIB: incremental updates vs rebuild",
		Header: []string{"kind", "routes", "bulk-load", "lookup", "allocs/lkup", "inc-update", "rebuild", "rebuild/inc"},
	}
	for _, r := range rows {
		t.Add(r.Kind, fmt.Sprint(r.Size),
			r.Build.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0fns", r.LookupNS),
			fmt.Sprintf("%.2f", r.AllocsPerLookup),
			fmt.Sprintf("%.1fus", r.IncUpdateNS/1e3),
			r.Rebuild.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0fx", r.Ratio))
	}
	t.Note("bulk-load = one ApplyBatch, one snapshot publication; inc-update = one single-route batch (ApplyDelta path)")
	t.Note("rebuild = fresh engine + every insert + priming, the per-flap cost before incremental updates")
	return t
}

// FIBChurnOptions parameterizes forwarding-under-churn.
type FIBChurnOptions struct {
	// Kind is the BMP engine (default bspl).
	Kind string
	// Routes is the FIB size loaded before traffic (default 100k).
	Routes int
	// Updates is the total route mutations applied while the second
	// half of the traffic forwards (default 10k).
	Updates int
	// BatchOps is the mutation batch size (default 100 — one snapshot
	// publication per 100 routes).
	BatchOps int
	// Packets is the wire traffic volume, half before churn starts and
	// half under churn (default 10k).
	Packets int
	// Window bounds in-flight packets (default 256).
	Window int
}

// FIBChurnResult is the forwarding-under-churn outcome.
type FIBChurnResult struct {
	Kind                      string
	Routes, Updates, Batches  int
	Packets, Received, Dup    int
	BaselinePPS, ChurnPPS     float64
	ConvergeMean, ConvergeMax time.Duration
	Elapsed                   time.Duration
}

// Lost reports packets that never reached the sink.
func (r FIBChurnResult) Lost() int { return r.Packets - r.Received }

// RunFIBChurn loads a full-scale FIB into a live two-router wire
// topology, streams verified traffic through it, and applies route
// churn to the ingress router's table while the second half of the
// traffic forwards. It measures the packet rate with and without
// churn, per-batch convergence (apply-to-snapshot-publication, which
// is when the data path sees the change), and end-to-end delivery —
// the experiment behind the claim that route churn is control-path
// work that does not stall lock-free forwarding lookups.
func RunFIBChurn(opts FIBChurnOptions) (FIBChurnResult, error) {
	if opts.Kind == "" {
		opts.Kind = "bspl"
	}
	if opts.Routes <= 0 {
		opts.Routes = 100_000
	}
	if opts.Updates <= 0 {
		opts.Updates = 10_000
	}
	if opts.BatchOps <= 0 {
		opts.BatchOps = 100
	}
	if opts.Packets <= 0 {
		opts.Packets = 10_000
	}
	if opts.Window <= 0 {
		opts.Window = 256
	}
	res := FIBChurnResult{Kind: opts.Kind, Routes: opts.Routes, Updates: opts.Updates, Packets: opts.Packets}

	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, fmt.Errorf("fib-churn: sink: %w", err)
	}
	defer sink.Close()

	a, b, err := buildFIBWirePair(opts.Kind, opts.Routes, sink.LocalAddr().String())
	if err != nil {
		return res, err
	}
	a.Start()
	defer a.Stop()
	b.Start()
	defer b.Stop()

	ingress := a.Interface(0)
	inject := func(data []byte) error {
		for {
			err := ingress.Inject(data)
			if err != netdev.ErrRingFull {
				return err
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	var received, duplicates atomic.Int64
	seen := make([]atomic.Bool, opts.Packets)
	sinkErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			sink.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, _, err := sink.ReadFromUDP(buf)
			if err != nil {
				return
			}
			h, err := pkt.ParseIPv4(buf[:n])
			if err != nil {
				sinkErr <- fmt.Errorf("fib-churn: non-IP at sink: %v", err)
				return
			}
			body := buf[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen]
			if len(body) != 8 || binary.BigEndian.Uint32(body) != wireMagic {
				sinkErr <- fmt.Errorf("fib-churn: corrupted payload: % x", body)
				return
			}
			seq := binary.BigEndian.Uint32(body[4:])
			if seq >= uint32(opts.Packets) {
				sinkErr <- fmt.Errorf("fib-churn: out-of-range seq %d", seq)
				return
			}
			if seen[seq].Swap(true) {
				duplicates.Add(1)
				continue
			}
			received.Add(1)
		}
	}()

	sendRange := func(from, to int) error {
		for i := from; i < to; i++ {
			if err := awaitWindow(int64(i), received.Load, int64(opts.Window), windowStall); err != nil {
				return err
			}
			data, err := wireDatagram(uint32(i))
			if err != nil {
				return err
			}
			if err := inject(data); err != nil {
				return fmt.Errorf("fib-churn: inject %d: %w", i, err)
			}
		}
		return nil
	}
	drain := func(target int64) error {
		deadline := time.Now().Add(30 * time.Second)
		for received.Load() < target && time.Now().Before(deadline) {
			select {
			case err := <-sinkErr:
				return err
			default:
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	half := opts.Packets / 2
	start := time.Now()

	// Phase 1: quiet table.
	t0 := time.Now()
	if err := sendRange(0, half); err != nil {
		return res, err
	}
	if err := drain(int64(half)); err != nil {
		return res, err
	}
	res.BaselinePPS = float64(half) / time.Since(t0).Seconds()

	// Phase 2: churn. A goroutine withdraws and re-announces slices of
	// the live table in batches while the remaining traffic forwards;
	// every batch's apply-to-publication latency is a convergence
	// sample.
	churnDone := make(chan struct{})
	var convTotal, convMax int64
	var batches int64
	go func() {
		defer close(churnDone)
		rng := rand.New(rand.NewSource(42))
		churn := genRoutes(rng, opts.Updates/2+opts.BatchOps)
		applied := 0
		pos := 0
		for applied < opts.Updates {
			n := opts.BatchOps / 2
			if n < 1 {
				n = 1
			}
			adds := make([]routing.Route, 0, n)
			dels := make([]pkt.Prefix, 0, n)
			for i := 0; i < n; i++ {
				rt := churn[(pos+i)%len(churn)]
				adds = append(adds, rt)
				dels = append(dels, churn[(pos+i+len(churn)/2)%len(churn)].Prefix)
			}
			pos += n
			t := time.Now()
			a.Routes.ApplyBatch(adds, dels)
			d := time.Since(t).Nanoseconds()
			convTotal += d
			if d > convMax {
				convMax = d
			}
			batches++
			applied += 2 * n
		}
	}()
	t0 = time.Now()
	if err := sendRange(half, opts.Packets); err != nil {
		return res, err
	}
	if err := drain(int64(opts.Packets)); err != nil {
		return res, err
	}
	res.ChurnPPS = float64(opts.Packets-half) / time.Since(t0).Seconds()
	<-churnDone

	res.Elapsed = time.Since(start)
	res.Received = int(received.Load())
	res.Dup = int(duplicates.Load())
	res.Batches = int(batches)
	if batches > 0 {
		res.ConvergeMean = time.Duration(convTotal / batches)
		res.ConvergeMax = time.Duration(convMax)
	}
	return res, nil
}

// windowStall bounds how long a full send window may go without one
// delivery. Past it a datagram was lost in a kernel socket buffer, and
// the window would never reopen.
const windowStall = 2 * time.Second

// awaitWindow blocks while sent-received fills the window. It fails,
// naming sent and received, once received has not moved for stall.
func awaitWindow(sent int64, received func() int64, window int64, stall time.Duration) error {
	last, moved := received(), time.Now()
	for sent-last >= window {
		if time.Since(moved) > stall {
			return fmt.Errorf("fib-churn: no delivery for %v with the window full: sent %d, received %d", stall, sent, last)
		}
		time.Sleep(50 * time.Microsecond)
		if r := received(); r != last {
			last, moved = r, time.Now()
		}
	}
	return nil
}

// buildFIBWirePair assembles the churn topology: router A carries the
// full-scale FIB (plus the default route the test traffic rides) and
// feeds router B over a UDP wire; B's egress link points at the sink.
func buildFIBWirePair(kind string, routes int, sinkAddr string) (a, b *eisr.Router, err error) {
	mk := func() (*eisr.Router, error) {
		r, err := eisr.New(eisr.Options{VerifyChecksums: true, BMP: kind})
		if err != nil {
			return nil, err
		}
		for idx, name := range []string{"lan", "wan"} {
			ifc := netdev.NewInterface(int32(idx), netdev.Config{Name: name, MTU: 1500})
			r.Core.AddInterface(ifc)
		}
		if err := r.AddRoute("0.0.0.0/0 dev 1"); err != nil {
			return nil, err
		}
		return r, nil
	}
	if a, err = mk(); err != nil {
		return nil, nil, err
	}
	if b, err = mk(); err != nil {
		return nil, nil, err
	}
	// The full table, loaded as one batch (one snapshot publication).
	rng := rand.New(rand.NewSource(7))
	a.Routes.ApplyBatch(genRoutes(rng, routes), nil)

	var linkA, linkBIn, linkBOut *netio.UDPLink
	if linkA, err = a.AttachUDPLink(1, "127.0.0.1:0", ""); err != nil {
		return nil, nil, err
	}
	if linkBIn, err = b.AttachUDPLink(0, "127.0.0.1:0", ""); err != nil {
		return nil, nil, err
	}
	if linkBOut, err = b.AttachUDPLink(1, "127.0.0.1:0", sinkAddr); err != nil {
		return nil, nil, err
	}
	if err = linkA.SetPeer(linkBIn.LocalAddr()); err != nil {
		return nil, nil, err
	}
	_ = linkBOut
	return a, b, nil
}

// FIBChurnTable renders the churn experiment.
func FIBChurnTable(r FIBChurnResult) *Table {
	t := &Table{
		Title:  "FIB churn: forwarding while the table mutates",
		Header: []string{"kind", "routes", "updates", "batches", "pkts", "recv", "lost", "base pkts/s", "churn pkts/s", "conv mean", "conv max"},
	}
	t.Add(r.Kind, fmt.Sprint(r.Routes), fmt.Sprint(r.Updates), fmt.Sprint(r.Batches),
		fmt.Sprint(r.Packets), fmt.Sprint(r.Received), fmt.Sprint(r.Lost()),
		fmtRate(r.BaselinePPS), fmtRate(r.ChurnPPS),
		r.ConvergeMean.Round(time.Microsecond).String(),
		r.ConvergeMax.Round(time.Microsecond).String())
	t.Note("convergence = ApplyBatch call to snapshot publication (the moment forwarding sees the change)")
	return t
}
