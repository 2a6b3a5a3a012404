package bench

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/netio"
	"github.com/routerplugins/eisr/internal/pkt"
)

// wireMagic marks wire-experiment payloads so stray datagrams on the
// harness sockets are detected rather than miscounted.
const wireMagic = 0xE15EBE7C

// wireMTU is the MTU of the harness routers' interfaces, and the one
// their sinks' receive buffers are sized for.
const wireMTU = 1500

// WireOptions parameterizes the wire experiment.
type WireOptions struct {
	// Packets is the number of UDP-encapsulated datagrams to push
	// (default 10_000; `-exp all` uses a smaller smoke size).
	Packets int
	// Window caps the in-flight packet count (default 256); the
	// smallest socket receive buffer on the path may bound it lower
	// (netio.Window).
	Window int
	// Daemon, when set, drives a live eisrd instead of an in-process
	// topology: the harness sends wire datagrams to this address (the
	// daemon's ingress -link socket) and expects the daemon's egress
	// link to point at SinkBind.
	Daemon string
	// SrcBind is the local address the sender socket binds
	// (default 127.0.0.1:0).
	SrcBind string
	// SinkBind is the local address the sink socket binds — in daemon
	// mode it must match the peer of the daemon's egress link
	// (default 127.0.0.1:0, in-process mode only).
	SinkBind string
	// Workers sizes the in-process routers' forwarding workers (ignored
	// in daemon mode).
	Workers int
	// Batch caps the in-process routers' per-worker forwarding vector
	// (0 = the engine default; ignored in daemon mode).
	Batch int
}

// WireResult is the wire experiment outcome.
type WireResult struct {
	Packets    int
	Received   int
	Duplicates int
	// Elapsed runs from the first send to the last delivery.
	Elapsed time.Duration
	Daemon  bool
	// Window is the in-flight bound the source kept.
	Window int
	// SinkRcvbufDrops counts datagrams the kernel dropped at the
	// sink's own receive buffer.
	SinkRcvbufDrops uint64
	// Links snapshots each in-process hop (empty in daemon mode; use
	// `pmgr links` and `pmgr stats` there).
	Links []WireHop
}

// WireHop is one in-process link: the wire-only events from its driver
// and the packet accounting of the interface it backs.
type WireHop struct {
	Link  netdev.LinkInfo
	Iface netdev.Stats
}

// TxConserved reports whether every datagram the interface handed its
// link is accounted for there: the interface's TX count equals the
// link's written datagrams plus its tx-errors. The link counts both
// before TransmitWire returns, so this holds whenever the hop is idle.
func (h WireHop) TxConserved() bool {
	return h.Iface.TxPackets == h.Link.Stats.TxPackets+h.Link.Stats.TxErrors
}

// Lost reports how many packets never reached the sink.
func (r WireResult) Lost() int { return r.Packets - r.Received }

// RunWire pushes UDP-encapsulated IP packets through a wire topology
// and verifies payload-by-payload delivery at a real UDP sink socket.
// In-process mode assembles two routers joined by a netio UDP link
// (ingress ring → router A with a drr instance at the sched gate →
// wire → router B → wire → sink); daemon mode aims the same traffic at
// a live eisrd's ingress link.
func RunWire(opts WireOptions) (WireResult, error) {
	if opts.Packets <= 0 {
		opts.Packets = 10_000
	}
	if opts.Window <= 0 {
		opts.Window = 256
	}
	if opts.SrcBind == "" {
		opts.SrcBind = "127.0.0.1:0"
	}
	if opts.SinkBind == "" {
		opts.SinkBind = "127.0.0.1:0"
	}

	sinkAddr, err := net.ResolveUDPAddr("udp", opts.SinkBind)
	if err != nil {
		return WireResult{}, fmt.Errorf("wire: sink bind: %w", err)
	}
	sink, err := net.ListenUDP("udp", sinkAddr)
	if err != nil {
		return WireResult{}, fmt.Errorf("wire: sink bind: %w", err)
	}
	defer sink.Close()
	sinkRcvbuf, err := netio.SizeReadBuffer(sink, netio.RcvbufFor(wireMTU))
	if err != nil {
		return WireResult{}, fmt.Errorf("wire: sink: %w", err)
	}

	res := WireResult{Packets: opts.Packets, Daemon: opts.Daemon != ""}
	// The receive buffers granted on the path (a daemon's links are
	// its own to size).
	granted := []int{sinkRcvbuf}

	// The ingress: either a live daemon's link socket or an in-process
	// two-router topology whose first hop we inject into directly.
	var inject func(data []byte) error
	var snapshotLinks func() []WireHop
	if opts.Daemon != "" {
		srcAddr, err := net.ResolveUDPAddr("udp", opts.SrcBind)
		if err != nil {
			return res, fmt.Errorf("wire: src bind: %w", err)
		}
		src, err := net.ListenUDP("udp", srcAddr)
		if err != nil {
			return res, fmt.Errorf("wire: src bind: %w", err)
		}
		defer src.Close()
		daemon, err := net.ResolveUDPAddr("udp", opts.Daemon)
		if err != nil {
			return res, fmt.Errorf("wire: daemon address: %w", err)
		}
		inject = func(data []byte) error {
			_, err := src.WriteToUDP(data, daemon)
			return err
		}
	} else {
		a, b, err := buildWirePair(opts.Workers, opts.Batch, sink.LocalAddr().String())
		if err != nil {
			return res, err
		}
		for _, li := range append(a.LinksReport(), b.LinksReport()...) {
			granted = append(granted, li.RcvbufGranted)
		}
		a.Start()
		defer a.Stop()
		b.Start()
		defer b.Stop()
		ingress := a.Interface(0)
		inject = func(data []byte) error {
			for {
				err := ingress.Inject(data)
				if err != netdev.ErrRingFull {
					return err
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		snapshotLinks = func() []WireHop {
			var hops []WireHop
			for _, r := range []*eisr.Router{a, b} {
				for _, li := range r.LinksReport() {
					hops = append(hops, WireHop{li, r.Interface(li.Iface).Stats()})
				}
			}
			return hops
		}
	}

	// The sink: verify and count every delivery, and note when the
	// last one arrived.
	var received atomic.Int64
	var duplicates atomic.Int64
	var lastDelivery atomic.Int64
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
				sinkErr <- fmt.Errorf("wire: sink got a non-IP datagram: %v", err)
				return
			}
			body := buf[h.HeaderLen()+pkt.UDPHeaderLen : h.TotalLen]
			if len(body) != 8 || binary.BigEndian.Uint32(body) != wireMagic {
				sinkErr <- fmt.Errorf("wire: sink payload corrupted: % x", body)
				return
			}
			seq := binary.BigEndian.Uint32(body[4:])
			if seq >= uint32(opts.Packets) {
				sinkErr <- fmt.Errorf("wire: out-of-range seq %d", seq)
				return
			}
			if seen[seq].Swap(true) {
				duplicates.Add(1)
				continue
			}
			lastDelivery.Store(time.Now().UnixNano())
			received.Add(1)
		}
	}()
	sinkFailed := func() error {
		select {
		case err := <-sinkErr:
			return err
		default:
			return nil
		}
	}

	// The source keeps at most a window in flight, and a window that
	// stops moving means a packet was lost: fail at once.
	probe, err := wireDatagram(0)
	if err != nil {
		return res, err
	}
	res.Window = netio.Window(len(probe), opts.Window, granted...)
	start := time.Now()
	for i := 0; i < opts.Packets; i++ {
		if err := netio.AwaitWindow(int64(i), received.Load, int64(res.Window), netio.WindowStall); err != nil {
			if serr := sinkFailed(); serr != nil {
				return res, serr
			}
			return res, fmt.Errorf("wire: %w", err)
		}
		data, err := wireDatagram(uint32(i))
		if err != nil {
			return res, err
		}
		if err := inject(data); err != nil {
			return res, fmt.Errorf("wire: inject %d: %w", i, err)
		}
	}
	// The rest arrive or stall; a stall is a loss, which Lost reports.
	_ = netio.AwaitWindow(int64(opts.Packets), received.Load, 1, netio.WindowStall)
	if err := sinkFailed(); err != nil {
		return res, err
	}
	if last := lastDelivery.Load(); last > 0 {
		res.Elapsed = time.Unix(0, last).Sub(start)
	}
	res.Received = int(received.Load())
	res.Duplicates = int(duplicates.Load())
	res.SinkRcvbufDrops, _ = netio.SocketDrops(sink) // 0 where the platform keeps no count
	if snapshotLinks != nil {
		res.Links = snapshotLinks()
	}
	return res, nil
}

// buildWirePair assembles the in-process topology: router A (ingress
// ring, drr at the sched gate, egress on a UDP link) wired to router B
// (UDP ingress link, UDP egress link to the sink).
func buildWirePair(workers, batch int, sinkAddr string) (a, b *eisr.Router, err error) {
	mk := func() (*eisr.Router, error) {
		r, err := eisr.New(eisr.Options{VerifyChecksums: true, Workers: workers, BatchSize: batch})
		if err != nil {
			return nil, err
		}
		for idx, name := range []string{"lan", "wan"} {
			ifc := netdev.NewInterface(int32(idx), netdev.Config{Name: name, MTU: wireMTU})
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
	if err = a.LoadPlugin("drr"); err != nil {
		return nil, nil, err
	}
	inst, err := a.CreateInstance("drr", map[string]string{"iface": "1"})
	if err != nil {
		return nil, nil, err
	}
	if err = a.Register("drr", inst, map[string]string{"filter": "*, *, *, *, *, *", "weight": "2"}); err != nil {
		return nil, nil, err
	}
	linkA, err := a.AttachUDPLink(1, "127.0.0.1:0", "")
	if err != nil {
		return nil, nil, err
	}
	linkBIn, err := b.AttachUDPLink(0, "127.0.0.1:0", "")
	if err != nil {
		return nil, nil, err
	}
	if _, err = b.AttachUDPLink(1, "127.0.0.1:0", sinkAddr); err != nil {
		return nil, nil, err
	}
	if err = linkA.SetPeer(linkBIn.LocalAddr()); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// wireDatagram builds the IP datagram for one sequence number. A few
// source ports spread the traffic over several flows.
func wireDatagram(seq uint32) ([]byte, error) {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint32(payload, wireMagic)
	binary.BigEndian.PutUint32(payload[4:], seq)
	return pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.2"),
		SrcPort: uint16(1000 + seq%8), DstPort: 9, Payload: payload, TTL: 64,
	})
}

// WireTable renders the wire experiment result.
func WireTable(r WireResult) *Table {
	t := &Table{
		Title:  "Wire: UDP overlay links, end-to-end over real sockets",
		Header: []string{"packets", "received", "lost", "dup", "window", "elapsed", "pkts/s"},
	}
	pps := "-"
	if r.Elapsed > 0 {
		pps = fmtRate(float64(r.Received) / r.Elapsed.Seconds())
	}
	t.Add(fmt.Sprint(r.Packets), fmt.Sprint(r.Received), fmt.Sprint(r.Lost()),
		fmt.Sprint(r.Duplicates), fmt.Sprint(r.Window), r.Elapsed.Round(time.Millisecond).String(), pps)
	if r.Daemon {
		t.Note("driven against a live eisrd; interface counters via `pmgr stats`, wire-only ones via `pmgr links`")
	}
	t.Note("sink: kernel rcvbuf drops %d", r.SinkRcvbufDrops)
	for _, h := range r.Links {
		li, s := h.Link, h.Iface
		conserved := "="
		if !h.TxConserved() {
			conserved = "!= (TX NOT CONSERVED)"
		}
		t.Note("%s (%s %s -> %s): rx %d tx %d drops rx=%d tx=%d; wire tx %d bad-path=%d rcvbuf=%d (buffer %d B, asked %d) errs=%d; iface tx %s wire tx + errs",
			li.Name, li.Kind, li.Local, li.Peer, s.RxPackets, s.TxPackets, s.RxDrops, s.TxDrops,
			li.Stats.TxPackets, li.Stats.RxDropBadPath, li.Stats.RxDropRcvbuf, li.RcvbufGranted, li.RcvbufRequested,
			li.Stats.TxErrors, conserved)
	}
	return t
}
